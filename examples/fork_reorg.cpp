// Mainchain fork resolution and sidechain binding (paper §5.1, Fig. 6).
//
// Nakamoto consensus gives no finality: a branch of MC blocks can be
// replaced by a longer one. Because every Latus block references the MC
// blocks it acknowledges, a mainchain reorg forces the sidechain to unwind
// blocks that referenced the abandoned branch and re-sync along the winner
// — forward transfers confirmed only on the losing branch disappear from
// the sidechain, exactly as §5.1's "mainchain forks resolution" property
// demands.
//
// Build & run:  ./build/examples/fork_reorg
#include <cstdio>

#include "core/engine.hpp"

using namespace zendoo;

int main() {
  using crypto::Domain;
  using crypto::hash_str;
  using crypto::KeyPair;

  auto miner = KeyPair::from_seed(hash_str(Domain::kGeneric, "miner"));
  auto alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"));
  auto rival = KeyPair::from_seed(hash_str(Domain::kGeneric, "rival-miner"));

  core::Engine engine(mainchain::ChainParams{}, miner);
  auto sc_id = hash_str(Domain::kGeneric, "fork-demo");
  latus::LatusNode& node =
      engine.add_latus_sidechain(sc_id, 2, 6, 3, {alice});
  engine.step();

  crypto::Digest fork_point = engine.mc().tip_hash();
  std::uint64_t fork_height = engine.mc().height();
  std::printf("fork point at MC height %llu\n",
              (unsigned long long)fork_height);

  // Branch A: one block carrying a forward transfer to alice.
  engine.queue_forward_transfer(sc_id, alice.address(), alice.address(),
                                777'000);
  engine.step();
  std::printf("branch A: FT mined at height %llu; alice@SC = %llu\n",
              (unsigned long long)engine.mc().height(),
              (unsigned long long)node.state().balance_of(alice.address()));

  // A rival miner extends the fork point with two empty blocks: branch B
  // becomes the longest chain and wins.
  crypto::Digest prev = fork_point;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    mainchain::Block blk;
    blk.header.prev_hash = prev;
    blk.header.height = fork_height + i;
    mainchain::Transaction cb;
    cb.is_coinbase = true;
    cb.coinbase_height = blk.header.height;
    cb.outputs.push_back(mainchain::TxOutput{
        rival.address(), engine.mc().params().block_subsidy});
    blk.transactions.push_back(cb);
    blk.header.tx_merkle_root = blk.compute_tx_merkle_root();
    blk.header.sc_txs_commitment = blk.build_commitment_tree().root();
    mainchain::Miner::solve_pow(blk, engine.mc().params().pow_target);
    auto result = engine.mc().submit_block(blk);
    std::printf("branch B: block %llu submitted (reorg: %s)\n",
                (unsigned long long)blk.header.height,
                result.reorged ? "yes" : "no");
    prev = blk.hash();
  }

  // The sidechain re-syncs along the active (B) branch. The node is rolled
  // back in place, so `node` still refers to it.
  engine.resync_sidechains_after_reorg();
  mainchain::Amount after_resync = node.state().balance_of(alice.address());
  std::printf("after resync: alice@SC = %llu (FT was on the dead branch)\n",
              (unsigned long long)after_resync);

  // The MC's safeguard balance also reflects the reorged view.
  const auto* sc = engine.mc().state().find_sidechain(sc_id);
  std::printf("sidechain safeguard balance after reorg: %llu\n",
              (unsigned long long)sc->balance);

  // Re-send the transfer on the winning branch; life goes on.
  engine.queue_forward_transfer(sc_id, alice.address(), alice.address(),
                                777'000);
  engine.step();
  mainchain::Amount after_resend = node.state().balance_of(alice.address());
  std::printf("FT re-sent on branch B: alice@SC = %llu\n",
              (unsigned long long)after_resend);

  bool ok = after_resync == 0 && after_resend == 777'000;
  std::printf("\nfork_reorg %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
