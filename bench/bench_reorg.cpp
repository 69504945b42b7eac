// Reorg cost: what a mainchain fork switch costs as a function of fork
// depth d and total chain length L (paper §5.1 "Mainchain forks
// resolution").
//
// The undo-based fork choice disconnects d blocks and connects d+1 — cost
// O(d), independent of L. A from-genesis replay (the pre-undo design)
// would instead scale with L; BM_ReorgVsChainLength makes the difference
// visible directly.
#include <benchmark/benchmark.h>
#include "mainchain/miner.hpp"

namespace {

using namespace zendoo;
using namespace zendoo::mainchain;

crypto::KeyPair key_of(const char* name) {
  return crypto::KeyPair::from_seed(
      crypto::hash_str(crypto::Domain::kGeneric, name));
}

/// Hand-built empty block (coinbase only) on top of `prev` at `height`,
/// paying `addr` — the rival branch a reorg switches to.
Block make_rival_block(const Digest& prev, std::uint64_t height,
                       const Address& addr, const ChainParams& params) {
  Block b;
  b.header.prev_hash = prev;
  b.header.height = height;
  Transaction cb;
  cb.is_coinbase = true;
  cb.coinbase_height = height;
  cb.outputs.push_back(TxOutput{addr, params.block_subsidy});
  b.transactions.push_back(std::move(cb));
  b.header.tx_merkle_root = b.compute_tx_merkle_root();
  b.header.sc_txs_commitment = b.build_commitment_tree().root();
  Miner::solve_pow(b, params.pow_target);
  return b;
}

/// Chain of length `length` with a rival branch forking `depth` blocks
/// below the tip. All rival blocks except the overtaking one are already
/// submitted (stored side branch); submitting `trigger` switches branches.
struct ReorgSetup {
  Blockchain chain{ChainParams{}};
  Block trigger;

  ReorgSetup(std::uint64_t length, std::uint64_t depth) {
    auto miner_key = key_of("bench-reorg-miner");
    auto rival_key = key_of("bench-reorg-rival");
    Miner miner(chain, miner_key.address());
    miner.mine_empty(length);

    std::uint64_t fork_height = length - depth;
    Digest prev = chain.hash_at_height(fork_height);
    for (std::uint64_t h = fork_height + 1; h <= length; ++h) {
      Block b = make_rival_block(prev, h, rival_key.address(),
                                 chain.params());
      prev = b.hash();
      if (!chain.submit_block(b).accepted()) {
        throw std::logic_error("bench: rival block rejected");
      }
    }
    trigger = make_rival_block(prev, length + 1, rival_key.address(),
                               chain.params());
  }
};

/// Reorg cost at fixed depth as the chain grows: flat with undo-based fork
/// choice, linear in L with from-genesis replay.
void BM_ReorgVsChainLength(benchmark::State& state) {
  std::uint64_t length = static_cast<std::uint64_t>(state.range(0));
  ReorgSetup setup(length, /*depth=*/4);
  for (auto _ : state) {
    state.PauseTiming();
    Blockchain chain = setup.chain;
    state.ResumeTiming();
    auto result = chain.submit_block(setup.trigger);
    if (!result.accepted() || !result.reorged) {
      throw std::logic_error("bench: reorg did not happen: " + result.error);
    }
    benchmark::DoNotOptimize(chain.height());
  }
}
BENCHMARK(BM_ReorgVsChainLength)->RangeMultiplier(2)->Range(32, 512);

/// Reorg cost vs fork depth at fixed chain length: O(d) disconnects +
/// connects.
void BM_ReorgVsDepth(benchmark::State& state) {
  std::uint64_t depth = static_cast<std::uint64_t>(state.range(0));
  ReorgSetup setup(/*length=*/256, depth);
  for (auto _ : state) {
    state.PauseTiming();
    Blockchain chain = setup.chain;
    state.ResumeTiming();
    auto result = chain.submit_block(setup.trigger);
    if (!result.accepted() || !result.reorged) {
      throw std::logic_error("bench: reorg did not happen: " + result.error);
    }
    benchmark::DoNotOptimize(chain.height());
  }
}
BENCHMARK(BM_ReorgVsDepth)->RangeMultiplier(2)->Range(1, 128);

}  // namespace
