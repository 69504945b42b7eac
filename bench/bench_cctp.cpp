// Experiments F6/F7/F8, F13, F14: end-to-end cross-chain
// transfer protocol costs through the full engine (MC mining + SC sync +
// forging + recursive proving + certificate verification).
//
// Series: forward-transfer batch sync (Fig. 13) vs batch size; a complete
// withdrawal-epoch cycle (Figs. 6-8, 11, 14) vs per-epoch payment count —
// including epoch proof generation, certificate submission and MC-side
// finalization.
#include <benchmark/benchmark.h>

#include "core/engine.hpp"
#include "sim/workload.hpp"

namespace {

using namespace zendoo;

crypto::KeyPair key_of(const char* name) {
  return crypto::KeyPair::from_seed(
      crypto::hash_str(crypto::Domain::kGeneric, name));
}

void BM_ForwardTransferBatch(benchmark::State& state) {
  // One MC block carrying N forward transfers, synced and credited by the
  // sidechain (Fig. 13).
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto miner = key_of("miner");
  auto users = sim::make_keys(n, 11);
  for (auto _ : state) {
    state.PauseTiming();
    core::Engine engine(mainchain::ChainParams{}, miner);
    auto sc_id = crypto::hash_str(crypto::Domain::kGeneric, "bench-ft");
    engine.add_latus_sidechain(sc_id, 2, 50, 10, {users[0]}, 14);
    engine.step();
    sim::fund_users(engine, sc_id, users, 1'000);
    state.ResumeTiming();
    engine.step();  // mine + sync + forge: the measured unit
    benchmark::DoNotOptimize(engine.sidechain(sc_id).state().total_supply());
  }
  state.counters["transfers"] = static_cast<double>(n);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ForwardTransferBatch)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_FullWithdrawalEpochCycle(benchmark::State& state) {
  // One complete withdrawal epoch: payments every block, recursive epoch
  // proof, certificate submitted and finalized by the MC (Figs. 11 & 14).
  std::size_t users_n = 8;
  std::size_t payments_per_block = static_cast<std::size_t>(state.range(0));
  auto miner = key_of("miner");
  auto users = sim::make_keys(users_n, 13);

  core::Engine engine(mainchain::ChainParams{}, miner);
  auto sc_id = crypto::hash_str(crypto::Domain::kGeneric, "bench-epoch");
  latus::LatusNode& node =
      engine.add_latus_sidechain(sc_id, 2, 4, 2, users, 14);
  engine.step();
  sim::fund_users(engine, sc_id, users, 1'000'000);
  engine.step();
  crypto::Rng rng(17);

  for (auto _ : state) {
    // Drive one full epoch (4 MC blocks) with traffic.
    for (int b = 0; b < 4; ++b) {
      std::size_t sent = 0;
      while (sent < payments_per_block) {
        sent += sim::random_payment_round(node, users, rng);
        if (sent == 0) break;
      }
      engine.step();
    }
    benchmark::DoNotOptimize(engine.mc().height());
  }
  // Each iteration drives one epoch; every epoch but the last (whose
  // certificate window is still open) must be finalized. Counting the
  // unfinalized ones keeps the counter independent of the iteration count.
  const auto* sc = engine.mc().state().find_sidechain(sc_id);
  const auto finalized = static_cast<benchmark::IterationCount>(
      sc && sc->last_finalized_epoch ? *sc->last_finalized_epoch + 1 : 0);
  state.counters["unfinalized_epochs"] =
      static_cast<double>(state.iterations() - finalized);
  state.counters["ceased"] = sc && sc->ceased ? 1 : 0;
}
BENCHMARK(BM_FullWithdrawalEpochCycle)
    ->Arg(0)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_BtrRoundTrip(benchmark::State& state) {
  // Fig. 14 right side: a mainchain-managed withdrawal — BTR proof
  // generation plus MC-side verification.
  auto miner = key_of("miner");
  auto alice = key_of("alice");
  core::Engine engine(mainchain::ChainParams{}, miner);
  auto sc_id = crypto::hash_str(crypto::Domain::kGeneric, "bench-btr");
  latus::LatusNode& node =
      engine.add_latus_sidechain(sc_id, 2, 4, 2, {alice}, 14);
  engine.step();
  // Many small coins so each iteration can claim a fresh one.
  auto users = sim::make_keys(64, 23);
  std::vector<mainchain::Wallet::FtSpec> specs;
  for (const auto& u : users) {
    specs.push_back({{alice.address(), alice.address()}, 1'000});
  }
  (void)users;
  auto tx = engine.miner_wallet().forward_transfer_many(engine.mc().state(),
                                                        sc_id, specs);
  engine.mempool().transactions.push_back(*tx);
  while (engine.mc().height() < 6) engine.step();  // epoch 0 certified

  auto coins = node.state().utxos_of(alice.address());
  std::size_t i = 0;
  for (auto _ : state) {
    if (i >= coins.size()) break;
    auto btr = node.create_btr(coins[i++], alice, alice.address());
    benchmark::DoNotOptimize(btr);
  }
  state.counters["coins_available"] = static_cast<double>(coins.size());
}
BENCHMARK(BM_BtrRoundTrip)->Unit(benchmark::kMillisecond)->Iterations(32);

}  // namespace
