// Experiment T-VERIFY: the paper's central systems claim —
// "succinct proofs and constant time verification ... does not impose a
// significant burden for the mainchain" (§4.1.2).
//
// Series, all measuring MAINCHAIN-side certificate validation:
//   * Zendoo:    one SNARK verification + BT-list root recomputation.
//   * Baseline:  m-of-n certifier multi-signature ([12]) — Θ(m) signature
//                verifications.
//   * Naive:     no proofs at all — the MC re-executes every sidechain
//                transaction of the epoch (what decoupling avoids).
//
// Expected shape: Zendoo flat and microseconds; baseline linear in m;
// naive linear in epoch transaction count and orders of magnitude larger.
#include <benchmark/benchmark.h>

#include "core/certifier_baseline.hpp"
#include "crypto/rng.hpp"
#include "latus/transactions.hpp"
#include "mainchain/wcert.hpp"

namespace {

using namespace zendoo;
using core::baseline::CertifierScheme;
using mainchain::BackwardTransfer;
using mainchain::WithdrawalCertificate;

// An "authority" proving key so certificates can be minted for arbitrary
// statements; MC-side verification cost is identical to a Latus
// certificate (same unified verifier).
struct AuthoritySetup {
  snark::ProvingKey pk;
  snark::VerifyingKey vk;
  AuthoritySetup() {
    auto circuit = [](const snark::Statement&, const snark::Witness& w) {
      const auto* s = std::any_cast<std::string>(&w);
      return s != nullptr && *s == "authority";
    };
    std::tie(pk, vk) = snark::PredicateSnark::setup(circuit, "bench-wcert");
  }
};

WithdrawalCertificate make_cert(std::size_t n_bts) {
  crypto::Rng rng(n_bts);
  WithdrawalCertificate cert;
  cert.ledger_id = crypto::hash_str(crypto::Domain::kGeneric, "bench-sc");
  cert.epoch_id = 5;
  cert.quality = 100;
  for (std::size_t i = 0; i < n_bts; ++i) {
    cert.bt_list.push_back(
        BackwardTransfer{rng.next_digest(), 1 + rng.next_below(1000)});
  }
  return cert;
}

void BM_ZendooCertVerify(benchmark::State& state) {
  static AuthoritySetup setup;
  std::size_t n_bts = static_cast<std::size_t>(state.range(0));
  crypto::Rng rng(n_bts);
  WithdrawalCertificate cert;
  cert.ledger_id = crypto::hash_str(crypto::Domain::kGeneric, "bench-sc");
  cert.epoch_id = 5;
  cert.quality = 100;
  for (std::size_t i = 0; i < n_bts; ++i) {
    cert.bt_list.push_back(
        BackwardTransfer{rng.next_digest(), 1 + rng.next_below(1000)});
  }
  crypto::Digest prev = rng.next_digest();
  crypto::Digest last = rng.next_digest();
  auto st = mainchain::wcert_statement_for(cert, prev, last);
  cert.proof =
      *snark::PredicateSnark::prove(setup.pk, st, std::string("authority"));

  for (auto _ : state) {
    // Everything the MC does per certificate: rebuild the statement from
    // the certificate contents, then run the unified SNARK verifier.
    auto statement = mainchain::wcert_statement_for(cert, prev, last);
    bool ok = snark::PredicateSnark::verify(setup.vk, statement, cert.proof);
    benchmark::DoNotOptimize(ok);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ZendooCertVerify)
    ->RangeMultiplier(4)
    ->Range(1, 1024)
    ->Complexity();

void BM_CertifierBaselineVerify(benchmark::State& state) {
  // [12]: m-of-n certifier endorsements; MC verifies m signatures.
  std::size_t m = static_cast<std::size_t>(state.range(0));
  CertifierScheme scheme(m + m / 2 + 1, m, /*seed=*/1);
  auto cert = make_cert(16);
  crypto::Digest prev = crypto::hash_str(crypto::Domain::kGeneric, "p");
  crypto::Digest last = crypto::hash_str(crypto::Domain::kGeneric, "l");
  auto sigs = scheme.endorse(cert, prev, last);
  for (auto _ : state) {
    bool ok = scheme.verify(cert, prev, last, sigs);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["signatures"] = static_cast<double>(m);
  state.SetComplexityN(static_cast<std::int64_t>(m));
}
BENCHMARK(BM_CertifierBaselineVerify)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Complexity();

void BM_NaiveReexecutionVerify(benchmark::State& state) {
  // Without decoupling, the MC would validate every SC transaction of the
  // epoch itself: T signature-checked payments over the MST.
  std::size_t n_tx = static_cast<std::size_t>(state.range(0));
  auto key = crypto::KeyPair::from_seed(
      crypto::hash_str(crypto::Domain::kGeneric, "user"));
  latus::LatusState initial(16);
  // Seed coins, one per tx.
  std::vector<latus::Utxo> coins;
  crypto::Rng rng(n_tx);
  for (std::size_t i = 0; i < n_tx; ++i) {
    latus::Utxo u{key.address(), 100, rng.next_digest()};
    if (initial.insert_utxo(u)) coins.push_back(u);
  }
  std::vector<latus::PaymentTx> txs;
  for (const auto& coin : coins) {
    txs.push_back(
        latus::build_payment({coin}, key, {{key.address(), 100}}));
  }
  for (auto _ : state) {
    latus::LatusState s = initial;
    bool ok = true;
    for (const auto& tx : txs) {
      ok = ok && latus::apply_payment(s, tx).empty();
    }
    benchmark::DoNotOptimize(ok);
  }
  state.counters["transactions"] = static_cast<double>(txs.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveReexecutionVerify)
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

}  // namespace
