// Workload sc-epochs: one core::Engine runs three Latus sidechains with
// unaligned epoch geometries and a seeded user population each. Every MC
// block brings SC payment rounds, forward transfers and backward
// transfers (client-side signing is kept out of the timed calls). Partway
// through, sidechain C stops certifying, ceases, and its users withdraw
// through CSWs. At intervals a hand-built empty rival branch overtakes the
// tip through Engine::submit_external_block, forcing a sidechain resync
// through the LatusNode checkpoint ring.
//
// Latus forging, MST/commitment merkle work, recursive proving and Engine
// resync dominate; the validation pool sees small batches plus the
// miner's dry_run cache hits; the network does nothing.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "layers.hpp"
#include "mainchain/wcert.hpp"
#include "sim/workload.hpp"

namespace zbench {

namespace {

using namespace zendoo;
using mainchain::Amount;
using mainchain::Block;
using mainchain::SidechainId;

struct ScSpec {
  const char* name;
  std::uint64_t start, epoch_len, submit_len;
};

// Unaligned geometries. Every submission window is at least 3 blocks, so a
// two-block rival branch (which carries no certificate) never closes a
// window whose certificate it displaced: the resync re-queues it for the
// block right after the rival tip, still inside the window.
constexpr ScSpec kSpecs[3] = {
    {"sc-a", 2, 5, 3},
    {"sc-b", 3, 7, 4},
    {"sc-c", 2, 6, 3},  // stops certifying and ceases
};
constexpr std::size_t kHalted = 2;

/// Last MC height whose block carries traffic for the halted sidechain:
/// one before the end of its epoch 2 (heights 14..19), so the epoch's last
/// payments land inside the epoch whose certificate is the last one.
constexpr std::uint64_t kHaltTrafficEnd = 18;
/// Certificates of the halted sidechain stop once the block at this
/// height (the one carrying the epoch-2 certificate) is mined; it ceases
/// when the epoch-3 window closes at height 29.
constexpr std::uint64_t kHaltCertsAfter = 20;
/// A fork point every 16 heights. Fork points are multiples of
/// LatusNode::kCheckpointInterval, so the newest checkpoint sits exactly at
/// the fork and the resync replays only the rival branch; the block
/// above the fork point is mined without client traffic, so rolling it
/// back loses no user transaction.
constexpr std::uint64_t kForkEvery = 16;
/// BTs stop this many heights before the end so every one is finalized.
constexpr std::uint64_t kBtMargin = 16;
constexpr Amount kFundEach = 50'000;

struct Sizes {
  std::size_t users;        ///< per sidechain; the last one withdraws
  std::uint64_t end_height;  ///< over 200 Engine::step calls at full size
  std::size_t setups;        ///< world builds timed for setup_s, at least
};

Sizes sizes_for(const Options& opts) {
  if (opts.tiny()) return {3, 36, 2};
  return {4, 224, 9};
}

unsigned verifying_threads() {
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

crypto::Digest tag(const char* what, std::uint64_t seed, std::uint64_t i) {
  return crypto::Hasher(crypto::Domain::kGeneric)
      .write_str("zbench-sc")
      .write_str(what)
      .write_u64(seed)
      .write_u64(i)
      .finalize();
}

mainchain::ChainParams chain_params() {
  mainchain::ChainParams params;
  params.validation.policy = parallel::CheckPolicy::kDeferred;
  params.validation.worker_threads = verifying_threads() - 1;
  return params;
}

/// Hand-built empty block on `prev` (the rival branch of a fork).
Block rival_block(const mainchain::ChainParams& params,
                  const crypto::Digest& prev, std::uint64_t height,
                  const mainchain::Address& addr) {
  Block b;
  b.header.prev_hash = prev;
  b.header.height = height;
  mainchain::Transaction cb;
  cb.is_coinbase = true;
  cb.coinbase_height = height;
  cb.outputs.push_back(mainchain::TxOutput{addr, params.block_subsidy});
  b.transactions.push_back(std::move(cb));
  b.header.tx_merkle_root = b.compute_tx_merkle_root();
  b.header.sc_txs_commitment = b.build_commitment_tree().root();
  mainchain::Miner::solve_pow(b, params.pow_target);
  return b;
}

/// One payment per payer per block: each spends half of its largest coin
/// to a random payer, change to self. (sim::random_payment_round spends the
/// first coin, so payers drop out as their coins fragment into dust and the
/// payments per block, and with them the cost, varied by +-20% between
/// seeds.)
std::size_t payment_round(latus::LatusNode& node,
                          const std::vector<crypto::KeyPair>& payers,
                          crypto::Rng& rng) {
  std::size_t submitted = 0;
  for (const auto& user : payers) {
    auto coins = node.state().utxos_of(user.address());
    auto coin = std::max_element(
        coins.begin(), coins.end(),
        [](const latus::Utxo& a, const latus::Utxo& b) {
          return a.amount < b.amount;
        });
    if (coin == coins.end() || coin->amount < 2) continue;
    const auto& receiver = payers[rng.next_below(payers.size())];
    const Amount pay = coin->amount / 2;
    node.submit_payment(latus::build_payment(
        {*coin}, user,
        {{receiver.address(), pay}, {user.address(), coin->amount - pay}}));
    ++submitted;
  }
  return submitted;
}

/// What the traced round records for the shadow replay, in call order.
struct Event {
  enum class Kind { kPaymentRound, kBackwardTransfer, kBlock, kHalt };
  Kind kind = Kind::kBlock;
  std::size_t sc = 0;
  crypto::Rng rng{0};              ///< kPaymentRound: generator state before
  std::size_t submitted = 0;       ///< kPaymentRound: payments it produced
  latus::BackwardTransferTx bt;    ///< kBackwardTransfer
  Block block;                     ///< kBlock
  bool stepped = false;            ///< kBlock: mined by Engine::step
  /// kBlock: the engine's sidechain state commitments after the call, and
  /// the hashes of the certificates it queued (step) or holds (resync).
  std::vector<crypto::Digest> commitments;
  std::vector<crypto::Digest> certs;
};

struct World {
  std::unique_ptr<core::Engine> engine;
  std::vector<SidechainId> ids;
  std::vector<std::vector<crypto::KeyPair>> users;
  mainchain::Address rival_addr;  ///< coinbase of the rival branches
};

World build_world(std::uint64_t seed, const Sizes& sizes) {
  World w;
  auto miner = crypto::KeyPair::from_seed(tag("miner", seed, 0));
  w.rival_addr = crypto::KeyPair::from_seed(tag("rival", seed, 0)).address();
  w.engine = std::make_unique<core::Engine>(chain_params(), miner);
  for (std::size_t i = 0; i < 3; ++i) {
    w.ids.push_back(tag(kSpecs[i].name, seed, i));
    w.users.push_back(sim::make_keys(sizes.users, seed * 8 + i));
    w.engine->add_latus_sidechain(w.ids[i], kSpecs[i].start,
                                  kSpecs[i].epoch_len, kSpecs[i].submit_len,
                                  w.users[i]);
  }
  w.engine->step();
  // Fund each sidechain's users in its own block.
  for (std::size_t i = 0; i < 3; ++i) {
    if (sim::fund_users(*w.engine, w.ids[i], w.users[i], kFundEach) == 0) {
      throw std::logic_error("sc-epochs: funding failed");
    }
    w.engine->step();
  }
  return w;
}

struct Round {
  std::vector<double> block_ms;  ///< per Engine::step
  std::vector<double> ext_ms;    ///< per submit_external_block
  std::vector<std::size_t> epoch_steps;  ///< steps that queued a certificate
  std::vector<std::size_t> reorg_calls;  ///< ext calls that overtook the tip
  double wall_ms = 0;    ///< the round's wall time minus client-side work
  std::uint64_t blocks = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t payments_submitted = 0;
  std::uint64_t csws = 0;
  Snapshot mc, par;  ///< engine registry deltas (traced only)
  std::vector<Event> events;
  double client_ms = 0;
};

std::vector<crypto::Digest> commitments_of(core::Engine& engine,
                                           const std::vector<SidechainId>& ids) {
  std::vector<crypto::Digest> out;
  for (const auto& id : ids) out.push_back(engine.sidechain(id).state().commitment());
  return out;
}

std::vector<crypto::Digest> mempool_certs(core::Engine& engine) {
  std::vector<crypto::Digest> out;
  for (const auto& c : engine.mempool().certificates) out.push_back(c.hash());
  return out;
}

Round run_round(World& w, std::uint64_t seed, const Sizes& sizes,
                Tracer* tracer, std::uint64_t round, Report& report) {
  Round out;
  core::Engine& engine = *w.engine;
  crypto::Rng rng(seed ^ 0x5eed5eedULL);
  const auto& params = engine.mc().params();
  const auto& vctx = engine.mc().state().validation_context();
  Snapshot mc0, par0;
  if (tracer != nullptr) {
    mc0 = snapshot(engine.mc().registry());
    par0 = snapshot(vctx->registry());
  }

  struct Expected {
    mainchain::Address receiver;
    Amount amount;
  };
  std::vector<Expected> bt_payouts, csw_payouts;
  std::vector<std::vector<crypto::Digest>> bt_spent(3);
  bool csws_done = false;
  std::uint64_t n_bt = 0;
  std::uint64_t group = round * 1'000'000;
  auto t_round = Clock::now();

  auto record = [&](Event e) {
    if (tracer != nullptr) out.events.push_back(std::move(e));
  };

  while (engine.mc().height() < sizes.end_height) {
    const std::uint64_t next = engine.mc().height() + 1;
    const bool quiet = next % kForkEvery == 1 && next > 1 &&
                       next + 1 <= sizes.end_height;
    ++group;

    // ---- client side: traffic for the block about to be mined ----------
    if (!quiet) {
      Tracer::Scope client(tracer, "client", group);
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < 3; ++i) {
        if (i == kHalted && next > kHaltTrafficEnd) continue;
        std::vector<crypto::KeyPair> payers(w.users[i].begin(),
                                            w.users[i].end() - 1);
        Event e;
        e.kind = Event::Kind::kPaymentRound;
        e.sc = i;
        e.rng = rng;
        e.submitted =
            payment_round(engine.sidechain(w.ids[i]), payers, rng);
        out.payments_submitted += e.submitted;
        record(std::move(e));
      }
      // One forward transfer per block (wallet-built transactions would
      // contend for the same miner UTXOs within a block).
      std::size_t ft_sc = rng.next_below(next > kHaltTrafficEnd ? 2 : 3);
      const auto& ft_user = w.users[ft_sc][rng.next_below(sizes.users)];
      report.check(engine.queue_forward_transfer(
                       w.ids[ft_sc], ft_user.address(), ft_user.address(),
                       1'000 + rng.next_below(9'000)),
                   "forward transfer could not be built");
      // Backward transfers from the withdrawing user of A and B.
      if (next + kBtMargin <= sizes.end_height) {
        for (std::size_t i = 0; i < 2; ++i) {
          if (!rng.chance(1, 3)) continue;
          const auto& who = w.users[i].back();
          latus::LatusNode& node = engine.sidechain(w.ids[i]);
          for (const latus::Utxo& coin : node.state().utxos_of(who.address())) {
            auto& spent = bt_spent[i];
            if (std::find(spent.begin(), spent.end(), coin.nonce) !=
                spent.end()) {
              continue;
            }
            spent.push_back(coin.nonce);
            mainchain::Address receiver = tag("bt-receiver", seed, n_bt++);
            Event e;
            e.kind = Event::Kind::kBackwardTransfer;
            e.sc = i;
            e.bt = latus::build_backward_transfer(
                {coin}, who, {mainchain::BackwardTransfer{receiver, coin.amount}});
            node.submit_backward_transfer(e.bt);
            bt_payouts.push_back({receiver, coin.amount});
            record(std::move(e));
            break;
          }
        }
      }
      // Once the halted sidechain has ceased, its users withdraw every
      // coin through CSWs.
      const auto* halted = engine.mc().state().find_sidechain(w.ids[kHalted]);
      if (!csws_done && halted != nullptr && halted->ceased) {
        csws_done = true;
        const latus::LatusNode& node = engine.sidechain(w.ids[kHalted]);
        for (const auto& user : w.users[kHalted]) {
          for (const latus::Utxo& coin : node.state().utxos_of(user.address())) {
            mainchain::Address receiver = tag("csw-receiver", seed, out.csws);
            try {
              engine.mempool().csws.push_back(
                  node.create_csw(coin, user, receiver));
              csw_payouts.push_back({receiver, coin.amount});
            } catch (const std::exception& e) {
              report.check(false, std::string("create_csw failed: ") + e.what());
            }
            ++out.csws;
          }
        }
      }
      out.client_ms += ms_since(t0);
    }

    // ---- timed: one MC block through Engine::step -----------------------
    Block block;
    {
      Tracer::Scope span(tracer, "core.step", group);
      auto t0 = Clock::now();
      try {
        block = engine.step();
      } catch (const std::exception& e) {
        report.check(false, std::string("Engine::step failed: ") + e.what());
        break;
      }
      double ms = ms_since(t0);
      out.block_ms.push_back(ms);
      if (!engine.mempool().certificates.empty()) {
        out.epoch_steps.push_back(out.block_ms.size() - 1);
      }
    }
    report.succeeded(1);
    ++out.blocks;
    if (tracer != nullptr) {
      Event e;
      e.kind = Event::Kind::kBlock;
      e.block = block;
      e.stepped = true;
      e.commitments = commitments_of(engine, w.ids);
      e.certs = mempool_certs(engine);
      record(std::move(e));
    }
    if (block.header.height == kHaltCertsAfter) {
      engine.set_auto_certificates(w.ids[kHalted], false);
      Event e;
      e.kind = Event::Kind::kHalt;
      e.sc = kHalted;
      record(std::move(e));
    }

    // ---- fork: an empty two-block rival branch overtakes the tip --------
    if (quiet) {
      const std::uint64_t f = block.header.height - 1;
      std::vector<const latus::LatusNode*> before;
      for (const auto& id : w.ids) before.push_back(&engine.sidechain(id));
      crypto::Digest prev = engine.mc().hash_at_height(f);
      for (std::uint64_t h = f + 1; h <= f + 2; ++h) {
        Block rival = rival_block(params, prev, h, w.rival_addr);
        prev = rival.hash();
        Tracer::Scope span(tracer, "core.submit_external", group);
        auto t0 = Clock::now();
        auto r = engine.submit_external_block(rival);
        double ms = ms_since(t0);
        ++out.blocks;
        bool overtakes = h == f + 2;
        out.ext_ms.push_back(ms);
        if (overtakes) out.reorg_calls.push_back(out.ext_ms.size() - 1);
        report.check(r.accepted() && r.reorged == overtakes,
                     "rival block at height " + std::to_string(h) +
                         " not handled as expected: " + r.error);
        if (tracer != nullptr) {
          Event e;
          e.kind = Event::Kind::kBlock;
          e.block = rival;
          e.commitments = commitments_of(engine, w.ids);
          e.certs = mempool_certs(engine);
          record(std::move(e));
        }
      }
      for (std::size_t i = 0; i < w.ids.size(); ++i) {
        if (&engine.sidechain(w.ids[i]) != before[i]) ++out.rebuilds;
      }
    }
  }

  out.wall_ms = ms_since(t_round) - out.client_ms;

  // ---- correctness of the round's outputs -------------------------------
  const auto& state = engine.mc().state();
  const std::uint64_t height = engine.mc().height();
  report.check(height == sizes.end_height, "round ended below its end height");
  for (std::size_t i = 0; i < 3; ++i) {
    const auto* sc = state.find_sidechain(w.ids[i]);
    if (i == kHalted) {
      report.check(sc != nullptr && sc->ceased,
                   "halted sidechain did not cease");
      continue;
    }
    const auto& p = sc->params;
    std::uint64_t first_close = p.start_block + p.epoch_len + p.submit_len;
    std::uint64_t expected =
        (height - p.start_block - p.submit_len) / p.epoch_len - 1;
    report.check(sc != nullptr && !sc->ceased && height >= first_close &&
                     sc->last_finalized_epoch == expected,
                 std::string("live sidechain ") + kSpecs[i].name +
                     " did not finalize every closed epoch");
    report.check(sc->balance >= engine.sidechain(w.ids[i]).state().total_supply(),
                 std::string("safeguard balance below SC supply on ") +
                     kSpecs[i].name);
  }
  report.check(csws_done && !csw_payouts.empty(), "no CSW was submitted");
  for (const auto& e : bt_payouts) {
    report.check(state.balance_of(e.receiver) == e.amount,
                 "BT payout differs from the amount requested");
  }
  for (const auto& e : csw_payouts) {
    report.check(state.balance_of(e.receiver) == e.amount,
                 "CSW payout differs from the amount requested");
  }
  report.check(out.rebuilds == 0,
               "a sidechain was rebuilt from genesis on a fork a checkpoint "
               "covers");
  if (tracer != nullptr) {
    out.mc = delta(snapshot(engine.mc().registry()), mc0);
    out.par = delta(snapshot(vctx->registry()), par0);
  }
  return out;
}

/// Shadow of one engine sidechain for the replay.
struct Shadow {
  std::unique_ptr<latus::LatusNode> node;
  std::size_t spec = 0;
  std::vector<crypto::KeyPair> forgers;
  std::uint64_t synced_height = 0;
  bool auto_certificates = true;
};

struct LatusReplay {
  double observe_ms = 0, forge_ms = 0, build_ms = 0, rollback_ms = 0;
  double submit_ms = 0;
  snark::RecursionStats recursion;
  std::uint64_t rebuilds = 0;
};

/// Replays the recorded round through a shadow Blockchain and one shadow
/// LatusNode per sidechain, driving each node exactly as Engine::step and
/// Engine::resync_sidechains_after_reorg drive the engine's, and times the
/// latus calls. Every step must reproduce the engine's state commitments
/// and queued certificate hashes.
LatusReplay replay_latus(const World& w, std::uint64_t setup_height,
                         const std::vector<Event>& events, const Sizes& sizes,
                         Report& report) {
  const mainchain::Blockchain& setup_chain = w.engine->mc();
  LatusReplay out;
  mainchain::Blockchain chain(chain_params());
  // Engine iterates its sidechains in id order; so does the shadow.
  std::vector<std::size_t> order = {0, 1, 2};
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return w.ids[a] < w.ids[b]; });
  std::vector<Shadow> shadows(3);
  auto make_node = [&](std::size_t i) {
    const ScSpec& s = kSpecs[i];
    auto node = std::make_unique<latus::LatusNode>(w.ids[i], s.start,
                                                   s.epoch_len, s.submit_len);
    for (const auto& key : w.users[i]) node->add_forger(key);
    return node;
  };
  for (std::size_t i = 0; i < 3; ++i) {
    shadows[i].node = make_node(i);
    shadows[i].spec = i;
  }

  auto sync = [&](Shadow& s, const Block& b, std::vector<crypto::Digest>& certs,
                  bool only_live) {
    auto t0 = Clock::now();
    std::string err = s.node->observe_mc_block(b);
    out.observe_ms += ms_since(t0);
    t0 = Clock::now();
    if (err.empty()) err = s.node->forge_until_synced();
    out.forge_ms += ms_since(t0);
    report.check(err.empty(), "shadow sidechain sync failed: " + err);
    s.synced_height = b.header.height;
    while (s.auto_certificates) {
      snark::RecursionStats stats;
      t0 = Clock::now();
      auto cert = s.node->build_certificate(&stats);
      out.build_ms += ms_since(t0);
      if (!cert) break;
      out.recursion.base_proofs += stats.base_proofs;
      out.recursion.merge_proofs += stats.merge_proofs;
      out.recursion.depth = std::max(out.recursion.depth, stats.depth);
      const auto* sc = chain.state().find_sidechain(w.ids[s.spec]);
      if (!only_live || (sc != nullptr && !sc->ceased)) {
        certs.push_back(cert->hash());
      }
    }
  };

  // The set-up blocks (registration and funding) precede the recorded
  // round and were never reorged; they carry no certificate.
  for (std::uint64_t h = 1; h <= setup_height; ++h) {
    const Block& b = *setup_chain.find_block(setup_chain.hash_at_height(h));
    report.check(chain.submit_block(b).accepted(),
                 "shadow chain rejected a set-up block");
    std::vector<crypto::Digest> certs;
    for (std::size_t i : order) sync(shadows[i], b, certs, false);
  }
  for (const Event& e : events) {
    switch (e.kind) {
      case Event::Kind::kPaymentRound: {
        std::vector<crypto::KeyPair> payers(w.users[e.sc].begin(),
                                            w.users[e.sc].end() - 1);
        crypto::Rng rng = e.rng;
        std::size_t n =
            payment_round(*shadows[e.sc].node, payers, rng);
        report.check(n == e.submitted, "shadow payment round differs");
        break;
      }
      case Event::Kind::kBackwardTransfer:
        shadows[e.sc].node->submit_backward_transfer(e.bt);
        break;
      case Event::Kind::kHalt:
        shadows[e.sc].auto_certificates = false;
        break;
      case Event::Kind::kBlock: {
        auto t0 = Clock::now();
        auto r = chain.submit_block(e.block);
        out.submit_ms += ms_since(t0);
        report.check(r.accepted(), "shadow chain rejected a block: " + r.error);
        std::vector<crypto::Digest> certs;
        if (e.stepped) {
          for (std::size_t i : order) sync(shadows[i], e.block, certs, false);
          report.check(certs == e.certs,
                       "shadow certificates differ from the engine's");
        } else if (r.connected > 0 || r.reorged) {
          // Engine::resync_sidechains_after_reorg, call for call.
          for (std::size_t i : order) {
            Shadow& s = shadows[i];
            std::uint64_t top = std::min(s.synced_height, chain.height());
            std::uint64_t fork = 0;
            for (std::uint64_t h = top; h >= 1; --h) {
              auto seen = s.node->observed_mc_hash(h);
              if (seen && *seen == chain.hash_at_height(h)) {
                fork = h;
                break;
              }
            }
            std::uint64_t from = fork + 1;
            if (fork != s.synced_height) {
              t0 = Clock::now();
              auto restored = s.node->rollback_to_mc_ancestor(fork);
              out.rollback_ms += ms_since(t0);
              if (restored) {
                from = *restored + 1;
              } else {
                ++out.rebuilds;
                s.node = make_node(i);
                from = 1;
              }
            }
            s.synced_height = from - 1;
            for (std::uint64_t h = from; h <= chain.height(); ++h) {
              sync(s, *chain.find_block(chain.hash_at_height(h)), certs, true);
            }
          }
          for (const auto& c : certs) {
            report.check(std::find(e.certs.begin(), e.certs.end(), c) !=
                             e.certs.end(),
                         "shadow resync certificate missing from the engine");
          }
        }
        std::vector<crypto::Digest> commits;
        for (std::size_t i = 0; i < 3; ++i) {
          commits.push_back(shadows[i].node->state().commitment());
        }
        report.check(commits == e.commitments,
                     "shadow state commitments differ from the engine's at "
                     "height " + std::to_string(e.block.header.height));
        break;
      }
    }
  }
  report.check(chain.height() == sizes.end_height,
               "shadow chain ended at another height");
  return out;
}

}  // namespace

void run_sc_epochs(const Options& opts, Report& report) {
  const Sizes sizes = sizes_for(opts);
  std::vector<double> setup_s, untraced_ms;
  std::vector<std::vector<double>> round_steps, round_exts;
  Round last;

  // Untraced rounds; each builds a fresh world (its setup is timed).
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  auto t_phase = Clock::now();
  std::size_t rounds = 0;
  while (rounds < 1 || ms_since(t_phase) < untraced_s * 1e3) {
    auto t0 = Clock::now();
    World w = build_world(opts.seed, sizes);
    setup_s.push_back(ms_since(t0) / 1e3);
    last = run_round(w, opts.seed, sizes, nullptr, rounds++, report);
    round_steps.push_back(last.block_ms);
    round_exts.push_back(last.ext_ms);
    untraced_ms.push_back(last.wall_ms);
  }
  // A round takes most of the run, so set-up is repeated on its own until
  // there are enough samples for a median.
  while (setup_s.size() < sizes.setups) {
    auto t0 = Clock::now();
    World w = build_world(opts.seed, sizes);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.block_figures(round_steps, round_exts, last.blocks);
  const std::vector<double> best_step = best_of(round_steps);
  const std::vector<double> best_ext = best_of(round_exts);
  std::vector<double> epoch_ms, reorg_ms;
  for (std::size_t i : last.epoch_steps) epoch_ms.push_back(best_step[i]);
  for (std::size_t i : last.reorg_calls) reorg_ms.push_back(best_ext[i]);
  report.timing("epoch_block_ms", epoch_ms, /*with_p95=*/false);
  report.timing("reorg_ms", reorg_ms, /*with_p95=*/false);
  if (!opts.trace) return;

  // Traced rounds: spans around every engine call, registry deltas, and
  // the recorded inputs for the shadow replay.
  Tracer tracer;
  std::vector<double> traced_ms;
  Round first;
  World first_world;
  std::uint64_t setup_height = 0;
  auto t_traced = Clock::now();
  std::size_t traced = 0;
  while (traced < 1 || ms_since(t_traced) < opts.seconds / 2 * 1e3) {
    World w = build_world(opts.seed, sizes);
    setup_height = w.engine->mc().height();
    Round r = run_round(w, opts.seed, sizes, &tracer, rounds++, report);
    traced_ms.push_back(r.wall_ms);
    if (traced == 0) {
      first = std::move(r);
      first_world = std::move(w);
    } else {
      report.check(r.blocks == first.blocks &&
                       r.payments_submitted == first.payments_submitted &&
                       value_of(r.par, "par.checks_executed") ==
                           value_of(first.par, "par.checks_executed"),
                   "per-layer counts differ between traced rounds");
    }
    ++traced;
  }
  if (!opts.spans_out.empty()) tracer.write(opts.spans_out);
  const double per_round = 1.0 / static_cast<double>(traced);
  const double step_ms = tracer.total_ms("core.step") * per_round;
  const double resync_ms = tracer.total_ms("core.submit_external") * per_round;

  LatusReplay lr =
      replay_latus(first_world, setup_height, first.events, sizes, report);

  // Replays of the final active chain through crypto, snark, merkle, codec.
  core::Engine& engine = *first_world.engine;
  const auto& chain = engine.mc();
  std::vector<Block> active;
  std::vector<SnarkCheck> snarks;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    const Block& b = *chain.find_block(chain.hash_at_height(h));
    active.push_back(b);
    for (const auto& cert : b.certificates) {
      const auto& p = chain.state().find_sidechain(cert.ledger_id)->params;
      auto [prev_last, last] = chain.state().epoch_boundary_hashes(p, cert.epoch_id);
      snarks.push_back(SnarkCheck{
          p.wcert_vk, mainchain::wcert_statement_for(cert, prev_last, last),
          cert.proof});
    }
    for (const auto& csw : b.csws) {
      const auto* sc = chain.state().find_sidechain(csw.ledger_id);
      snarks.push_back(SnarkCheck{
          sc->params.csw_vk,
          mainchain::csw_statement(sc->last_cert_block, csw.nullifier,
                                   csw.receiver, csw.amount,
                                   csw.proofdata_root()),
          csw.proof});
    }
  }
  BlockReplay rep;
  replay_blocks(active, rep, report);
  replay_snarks(snarks, rep, report);
  report_replay(rep, report);

  std::uint64_t certificates = 0, csws_mined = 0, sc_blocks = 0, applied = 0;
  for (const Block& b : active) {
    certificates += b.certificates.size();
    csws_mined += b.csws.size();
  }
  for (const auto& id : first_world.ids) {
    for (const auto& sb : engine.sidechain(id).chain()) {
      ++sc_blocks;
      applied += sb.payments.size();
    }
  }
  report.check(csws_mined == first.csws, "not every CSW was mined");

  const unsigned threads = verifying_threads();
  const double connect_ms =
      static_cast<double>(value_of(first.mc, "mc.connect_block_ns.sum") +
                          value_of(first.mc, "mc.disconnect_block_ns.sum")) /
      1e6;
  report_mc(first.mc, report);
  report.set("mc.submit_ms", lr.submit_ms, "ms");
  // The miner's dry_run verifies most checks inside Engine::step, outside
  // connect_block, so the pool's utilization is taken over the engine calls.
  report_par(first.par, threads, step_ms + resync_ms, report);
  report.set("snark.base_proofs", static_cast<double>(lr.recursion.base_proofs),
             "count");
  report.set("snark.merge_proofs",
             static_cast<double>(lr.recursion.merge_proofs), "count");
  report.set("snark.recursion_depth", static_cast<double>(lr.recursion.depth),
             "count");
  report.set("latus.observe_ms", lr.observe_ms, "ms");
  report.set("latus.forge_ms", lr.forge_ms, "ms");
  report.set("latus.build_certificate_ms", lr.build_ms, "ms");
  report.set("latus.rollback_ms", lr.rollback_ms, "ms");
  report.set("latus.sc_blocks", static_cast<double>(sc_blocks), "count");
  report.set("latus.payments_submitted",
             static_cast<double>(first.payments_submitted), "count");
  report.set("latus.payments_applied", static_cast<double>(applied), "count");
  report.set("latus.payment_accept_ratio",
             first.payments_submitted > 0
                 ? static_cast<double>(applied) /
                       static_cast<double>(first.payments_submitted)
                 : 0,
             "ratio");
  report.set("latus.certificates", static_cast<double>(certificates), "count");
  report.set("latus.csws", static_cast<double>(first.csws), "count");
  report.set("core.resync_rebuilds", static_cast<double>(first.rebuilds),
             "count");
  report.check(lr.rebuilds == first.rebuilds,
               "shadow resync rebuilt a different number of nodes");

  // Ledger of one round over its wall time minus client-side work: the
  // step/resync spans are core; inside them the chain's own connect and
  // disconnect time (registry) is mc, the pool's verify time is par
  // (signatures are crypto, proofs snark; most run in the miner's dry_run,
  // outside connect_block) and the shadow-replayed latus calls are latus.
  // Inside mc, the replayed merkle roots are merkle.
  const double sig_ms =
      static_cast<double>(value_of(first.par, "par.verify_ns{kind=signature}.sum")) /
      1e6 / threads;
  const double snark_ms =
      static_cast<double>(value_of(first.par, "par.verify_ns{kind=snark}.sum")) /
      1e6 / threads;
  const double latus_ms =
      lr.observe_ms + lr.forge_ms + lr.build_ms + lr.rollback_ms;
  LedgerNode par{"par", sig_ms + snark_ms,
                 {{"crypto", sig_ms, {}}, {"snark", snark_ms, {}}}};
  LedgerNode mc{"mc",
                connect_ms,
                {{"merkle", rep.tx_root_ms + rep.commitment_ms, {}}}};
  LedgerNode core{"core",
                  step_ms + resync_ms,
                  {mc, par, {"latus", latus_ms, {}}}};
  double wall_ms = 0;
  for (double ms : traced_ms) wall_ms += ms;
  wall_ms *= per_round;
  report.ledger(wall_ms, {core});
  report.set("core.step_ms", step_ms, "ms");
  report.set("core.step_self_ms", report.metrics().at("ledger.core.self_ms").value,
             "ms");
  report.set("core.resync_ms", resync_ms, "ms");
  report.set("ledger.untraced_wall_ms", median(untraced_ms), "ms");
  report.set("ledger.trace_overhead_frac",
             median(traced_ms) / median(untraced_ms) - 1, "ratio");
}

}  // namespace zbench
