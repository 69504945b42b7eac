// Workload mc-proofheavy: one mainchain::Blockchain receives a seeded
// chain of proof-heavy blocks through submit_block, one block at a time
// (closed loop). Each block carries signed payments (one signature check
// each, one of them also paying a forward transfer), one withdrawal
// certificate for a live sidechain, CSWs against a ceased sidechain and one
// BTR. The deferred validation pool runs 4 verifying threads.
//
// Signature/SNARK verification, the parallel pool and apply_block do
// nearly all the work here; net, sim and latus do none.
#include <algorithm>
#include <stdexcept>
#include <thread>

#include "crypto/rng.hpp"
#include "layers.hpp"
#include "mainchain/chain.hpp"
#include "mainchain/miner.hpp"
#include "mainchain/wcert.hpp"

namespace zbench {

namespace {

using namespace zendoo;
using namespace zendoo::mainchain;

struct Sizes {
  std::size_t segment_blocks;  ///< proof-heavy blocks per round
  std::size_t sigs;            ///< signed payments per block
  std::size_t csws;            ///< CSWs per block
  std::size_t setups;          ///< input generations timed for setup_s
  std::size_t min_rounds;      ///< untraced rounds at least
};

Sizes sizes_for(const Options& opts) {
  if (opts.tiny()) return {3, 4, 1, 2, 1};
  return {200, 24, 4, 3, 2};
}

/// Verifying threads: the control thread plus up to three workers, never
/// more than the host has.
unsigned verifying_threads() {
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

constexpr Amount kFtAmount = 1'000;

/// The generated input: a chain whose first `prefix` blocks set the stage
/// (sidechain registration, funding, the CSW sidechain ceasing) and whose
/// remaining blocks are the proof-heavy segment the round times.
struct Inputs {
  ChainParams params;
  std::vector<Block> blocks;  ///< genesis excluded
  std::size_t prefix = 0;
  std::vector<SnarkCheck> snarks;  ///< every SNARK check of the segment
  Digest fingerprint;              ///< generator's final state
  Digest tip;
};

Block begin_block(const Blockchain& chain, const Address& addr,
                  std::uint64_t salt) {
  Block b;
  b.header.prev_hash = chain.tip_hash();
  b.header.height = chain.height() + 1;
  Transaction cb;
  cb.is_coinbase = true;
  cb.coinbase_height = b.header.height;
  cb.outputs.push_back(TxOutput{addr, chain.params().block_subsidy});
  // Zero-value salt output: blocks of different seeds differ.
  cb.outputs.push_back(TxOutput{crypto::Hasher(crypto::Domain::kGeneric)
                                    .write_u64(salt)
                                    .write_u64(b.header.height)
                                    .finalize(),
                                0});
  b.transactions.push_back(std::move(cb));
  return b;
}

void seal(Block& b, const ChainParams& params) {
  b.header.tx_merkle_root = b.compute_tx_merkle_root();
  b.header.sc_txs_commitment = b.build_commitment_tree().root();
  Miner::solve_pow(b, params.pow_target);
}

void submit_or_throw(Blockchain& chain, Inputs& in, Block b) {
  seal(b, in.params);
  auto r = chain.submit_block(b);
  if (!r.accepted()) {
    throw std::logic_error("mc-proofheavy: generated block rejected: " +
                           r.error);
  }
  in.blocks.push_back(std::move(b));
}

Inputs generate(std::uint64_t seed, const Sizes& sizes) {
  Inputs in;
  in.params.validation.policy = parallel::CheckPolicy::kDeferred;
  in.params.validation.worker_threads = verifying_threads() - 1;
  crypto::Rng rng(seed);

  auto tag = [&](const char* what, std::uint64_t i = 0) {
    return crypto::Hasher(crypto::Domain::kGeneric)
        .write_str("zbench-mc")
        .write_str(what)
        .write_u64(seed)
        .write_u64(i)
        .finalize();
  };
  std::vector<crypto::KeyPair> keys;
  for (std::uint64_t i = 0; i < 4; ++i) {
    keys.push_back(crypto::KeyPair::from_seed(tag("key", i)));
  }
  const crypto::KeyPair& miner = keys[0];

  auto always_true = [](const snark::Statement&, const snark::Witness&) {
    return true;
  };
  auto [wcert_pk, wcert_vk] = snark::PredicateSnark::setup(always_true,
                                                           "zbench-wcert");
  auto [csw_pk, csw_vk] = snark::PredicateSnark::setup(always_true,
                                                       "zbench-csw");
  auto [btr_pk, btr_vk] = snark::PredicateSnark::setup(always_true,
                                                       "zbench-btr");

  // Live sidechain: 2-block epochs with a full submission window, so every
  // segment block carries one certificate. CSW sidechain: never
  // certifies and ceases when its first window closes. BTR sidechain:
  // epochs far longer than the chain, so it stays active and uncertified.
  SidechainParams live_sc;
  live_sc.ledger_id = tag("live-sc");
  live_sc.start_block = 4;
  live_sc.epoch_len = 2;
  live_sc.submit_len = 2;
  live_sc.wcert_vk = wcert_vk;
  SidechainParams csw_sc;
  csw_sc.ledger_id = tag("csw-sc");
  csw_sc.start_block = 2;
  csw_sc.epoch_len = 2;
  csw_sc.submit_len = 2;
  csw_sc.csw_vk = csw_vk;
  SidechainParams btr_sc;
  btr_sc.ledger_id = tag("btr-sc");
  btr_sc.start_block = 2;
  btr_sc.epoch_len = 100'000;
  btr_sc.submit_len = 2;
  btr_sc.btr_vk = btr_vk;

  Blockchain chain(in.params);

  // h1: register the sidechains; the coinbase funds the fan-out.
  Block b1 = begin_block(chain, miner.address(), seed);
  b1.sidechain_creations = {live_sc, csw_sc, btr_sc};
  submit_or_throw(chain, in, b1);
  const Digest cb1 = in.blocks.back().transactions[0].id();

  // h2: fan the h1 coinbase out into one output per payment chain and fund
  // the CSW sidechain while it is still active.
  Amount csw_fund = 1'000'000;
  Amount per_chain = (in.params.block_subsidy - csw_fund) / sizes.sigs;
  Transaction fanout;
  fanout.inputs.push_back(TxInput{OutPoint{cb1, 0}, {}, {}});
  for (std::size_t j = 0; j < sizes.sigs; ++j) {
    fanout.outputs.push_back(TxOutput{keys[j % keys.size()].address(),
                                      per_chain});
  }
  fanout.forward_transfers.push_back(ForwardTransferOutput{
      csw_sc.ledger_id, {miner.address(), miner.address()}, csw_fund});
  fanout = sign_all_inputs(std::move(fanout), miner);
  const Digest fanout_id = fanout.id();
  Block b2 = begin_block(chain, miner.address(), seed);
  b2.transactions.push_back(std::move(fanout));
  submit_or_throw(chain, in, b2);

  // h3..h5: empty blocks until the CSW sidechain's first window closes.
  while (chain.height() < 5) {
    submit_or_throw(chain, in, begin_block(chain, miner.address(), seed));
  }
  in.prefix = in.blocks.size();

  // Each payment chain respends its previous output to a random key.
  struct Coin {
    OutPoint op;
    std::size_t owner;
    Amount amount;
  };
  std::vector<Coin> coins;
  for (std::size_t j = 0; j < sizes.sigs; ++j) {
    coins.push_back(Coin{OutPoint{fanout_id, static_cast<std::uint32_t>(j)},
                         j % keys.size(), per_chain});
  }

  for (std::size_t s = 0; s < sizes.segment_blocks; ++s) {
    Block b = begin_block(chain, miner.address(), seed);
    const std::uint64_t h = b.header.height;
    for (std::size_t j = 0; j < sizes.sigs; ++j) {
      Coin& c = coins[j];
      std::size_t payee = rng.next_below(keys.size());
      Transaction t;
      t.inputs.push_back(TxInput{c.op, {}, {}});
      Amount fee = rng.next_below(100);
      Amount ft = j == 0 ? kFtAmount : 0;
      t.outputs.push_back(TxOutput{keys[payee].address(), c.amount - fee - ft});
      if (ft > 0) {
        t.forward_transfers.push_back(ForwardTransferOutput{
            live_sc.ledger_id,
            {keys[payee].address(), keys[payee].address()},
            ft});
      }
      t = sign_all_inputs(std::move(t), keys[c.owner]);
      c = Coin{OutPoint{t.id(), 0}, payee, c.amount - fee - ft};
      b.transactions.push_back(std::move(t));
    }

    WithdrawalCertificate cert;
    cert.ledger_id = live_sc.ledger_id;
    cert.epoch_id = live_sc.epoch_of(h) - 1;
    cert.quality = h;
    auto [prev_last, last] =
        chain.state().epoch_boundary_hashes(live_sc, cert.epoch_id);
    snark::Statement st = wcert_statement_for(cert, prev_last, last);
    cert.proof = *snark::PredicateSnark::prove(wcert_pk, st, snark::Witness{});
    in.snarks.push_back(SnarkCheck{wcert_vk, st, cert.proof});
    b.certificates.push_back(std::move(cert));

    BtrRequest btr;
    btr.ledger_id = btr_sc.ledger_id;
    btr.receiver = keys[rng.next_below(keys.size())].address();
    btr.amount = 1 + rng.next_below(1'000);
    btr.nullifier = tag("btr-nullifier", h);
    snark::Statement st_btr =
        btr_statement(Digest{}, btr.nullifier, btr.receiver, btr.amount,
                      btr.proofdata_root());
    btr.proof = *snark::PredicateSnark::prove(btr_pk, st_btr, snark::Witness{});
    in.snarks.push_back(SnarkCheck{btr_vk, st_btr, btr.proof});
    b.btrs.push_back(std::move(btr));

    for (std::size_t j = 0; j < sizes.csws; ++j) {
      CeasedSidechainWithdrawal csw;
      csw.ledger_id = csw_sc.ledger_id;
      csw.receiver = keys[rng.next_below(keys.size())].address();
      csw.amount = 1 + rng.next_below(100);
      csw.nullifier = tag("csw-nullifier", h * 1000 + j);
      snark::Statement st_csw =
          csw_statement(Digest{}, csw.nullifier, csw.receiver, csw.amount,
                        csw.proofdata_root());
      csw.proof = *snark::PredicateSnark::prove(csw_pk, st_csw,
                                                snark::Witness{});
      in.snarks.push_back(SnarkCheck{csw_vk, st_csw, csw.proof});
      b.csws.push_back(std::move(csw));
    }
    submit_or_throw(chain, in, std::move(b));
  }
  in.fingerprint = chain.state().state_fingerprint();
  in.tip = chain.tip_hash();
  return in;
}

/// Flips one bit of one payment signature in the middle of the segment and
/// reseals the block, so only the signature check can reject it.
void corrupt_signature(Inputs& in) {
  Block& b = in.blocks[in.prefix + (in.blocks.size() - in.prefix) / 2];
  b.transactions.at(1).inputs.at(0).sig.s.limb[0] ^= 1;
  seal(b, in.params);
}

struct Round {
  std::vector<double> block_ms;
  double wall_ms = 0;
  Snapshot mc, par;  ///< registry deltas over the segment (traced only)
};

Round run_round(const Inputs& in, Tracer* tracer, std::uint64_t round,
                Report& report) {
  Round out;
  Blockchain chain(in.params);
  for (std::size_t i = 0; i < in.prefix; ++i) {
    report.check(chain.submit_block(in.blocks[i]).accepted(),
                 "prefix block " + std::to_string(i + 1) + " rejected");
  }
  const auto& vctx = chain.state().validation_context();
  Snapshot mc0, par0;
  if (tracer != nullptr) {
    mc0 = snapshot(chain.registry());
    par0 = snapshot(vctx->registry());
  }

  out.block_ms.reserve(in.blocks.size() - in.prefix);
  auto t_round = Clock::now();
  for (std::size_t i = in.prefix; i < in.blocks.size(); ++i) {
    Tracer::Scope span(tracer, "mc.submit_block", round * 100'000 + i);
    auto t0 = Clock::now();
    auto r = chain.submit_block(in.blocks[i]);
    out.block_ms.push_back(ms_since(t0));
    report.check(r.accepted() && r.connected == 1,
                 "segment block at height " +
                     std::to_string(in.blocks[i].header.height) +
                     " not connected: " + r.error);
  }
  out.wall_ms = ms_since(t_round);

  report.check(chain.state().state_fingerprint() == in.fingerprint &&
                   chain.tip_hash() == in.tip,
               "final state fingerprint differs from the generator's");
  if (tracer != nullptr) {
    out.mc = delta(snapshot(chain.registry()), mc0);
    out.par = delta(snapshot(vctx->registry()), par0);
  }
  return out;
}

}  // namespace

void run_mc_proofheavy(const Options& opts, Report& report) {
  const Sizes sizes = sizes_for(opts);

  // Set-up: generate the inputs several times; every generation must be
  // identical (same seed, same chain), and setup_s is their median.
  std::vector<double> setup_s;
  Inputs in;
  for (std::size_t k = 0; k < sizes.setups; ++k) {
    auto t0 = Clock::now();
    Inputs gen = generate(opts.seed, sizes);
    setup_s.push_back(ms_since(t0) / 1e3);
    if (k == 0) {
      in = std::move(gen);
    } else {
      report.check(gen.tip == in.tip && gen.fingerprint == in.fingerprint,
                   "input generation is not deterministic");
    }
  }
  if (opts.corrupt == "sig") corrupt_signature(in);
  report.set("setup_s", median(setup_s), "s", setup_s.size());

  // Untraced rounds: the end-to-end figures. A traced run spends half its
  // time here and the other half on traced rounds.
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<std::vector<double>> block_ms;
  std::vector<double> round_ms;
  std::uint64_t round = 0;
  auto t_phase = Clock::now();
  while (round < sizes.min_rounds || ms_since(t_phase) < untraced_s * 1e3) {
    Round r = run_round(in, nullptr, round++, report);
    block_ms.push_back(std::move(r.block_ms));
    round_ms.push_back(r.wall_ms);
  }
  report.block_figures(block_ms, {}, in.blocks.size() - in.prefix);
  if (!opts.trace) return;

  // Traced rounds: spans around every submit_block, registry deltas per
  // round. Counts come from the first traced round; every later traced
  // round must repeat them exactly.
  Tracer tracer;
  std::vector<double> traced_round_ms;
  Round first;
  double submit_ms = 0;
  auto t_traced = Clock::now();
  std::uint64_t traced = 0;
  while (traced < 1 || ms_since(t_traced) < opts.seconds / 2 * 1e3) {
    Round r = run_round(in, &tracer, round++, report);
    traced_round_ms.push_back(r.wall_ms);
    if (traced == 0) {
      first = r;
    } else {
      report.check(value_of(r.mc, "mc.blocks_connected") ==
                           value_of(first.mc, "mc.blocks_connected") &&
                       value_of(r.par, "par.checks_executed") ==
                           value_of(first.par, "par.checks_executed") &&
                       value_of(r.par, "par.cache_hits") ==
                           value_of(first.par, "par.cache_hits"),
                   "per-layer counts differ between traced rounds");
    }
    ++traced;
  }
  submit_ms = tracer.total_ms("mc.submit_block") / static_cast<double>(traced);
  double wall_ms = 0;
  for (double ms : traced_round_ms) wall_ms += ms;
  wall_ms /= static_cast<double>(traced);
  if (!opts.spans_out.empty()) tracer.write(opts.spans_out);

  // Replays of the segment through the layers submit_block reaches
  // internally.
  BlockReplay rep;
  std::vector<Block> segment(in.blocks.begin() +
                                 static_cast<std::ptrdiff_t>(in.prefix),
                             in.blocks.end());
  replay_blocks(segment, rep, report);
  replay_snarks(in.snarks, rep, report);
  report_replay(rep, report);

  const unsigned threads = verifying_threads();
  report_mc(first.mc, report);
  report.set("mc.submit_ms", submit_ms, "ms");
  report_par(first.par, threads,
             static_cast<double>(value_of(first.mc, "mc.connect_block_ns.sum")) /
                 1e6,
             report);

  // Ledger of one round: submit_block spans are the mc layer; inside them
  // the pool's verify time (busy time spread over the verifying threads)
  // is par, split into crypto (signatures) and snark; the replayed merkle
  // roots and hashing are merkle and crypto.
  const double sig_ms =
      static_cast<double>(value_of(first.par, "par.verify_ns{kind=signature}.sum")) /
      1e6 / threads;
  const double snark_ms =
      static_cast<double>(value_of(first.par, "par.verify_ns{kind=snark}.sum")) /
      1e6 / threads;
  LedgerNode par{"par", sig_ms + snark_ms,
                 {{"crypto", sig_ms, {}}, {"snark", snark_ms, {}}}};
  LedgerNode mc{"mc",
                submit_ms,
                {par,
                 {"merkle", rep.tx_root_ms + rep.commitment_ms, {}},
                 {"crypto", rep.hash_ms, {}}}};
  report.ledger(wall_ms, {mc});
  report.set("ledger.untraced_wall_ms", median(round_ms), "ms");
  report.set("ledger.trace_overhead_frac",
             median(traced_round_ms) / median(round_ms) - 1, "ratio");
}

}  // namespace zbench
