// Workload net-cluster: a seeded full-mesh SimNet of 32 NetNodes (links
// 1-4 ticks, no drops, delivery tracing off). The nodes mine coinbase-only
// blocks round-robin and each mine() waits for the network to go idle
// (flood relay). Then come half/half partition cycles: both sides mine,
// the partition heals, tips are re-announced and the losing half reorgs
// through headers-first sync. Last, a node isolated for the whole run
// rejoins and catches up from its 31 peers.
//
// The event loop, flood relay, dedup/encode caches, the codec and header
// hashing dominate; each block is validated 32 times but costs almost
// nothing, so a crypto or pool change should show no change here.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "crypto/rng.hpp"
#include "layers.hpp"
#include "mainchain/miner.hpp"
#include "net/node.hpp"
#include "sim/metrics_probe.hpp"

namespace zbench {

namespace {

using namespace zendoo;
using mainchain::Block;
using net::NetNode;
using net::NodeId;
using net::SimNet;

struct Sizes {
  std::size_t nodes;
  std::size_t relay_blocks;
  std::size_t cycles;  ///< partition cycles
  std::size_t min_rounds;
};

Sizes sizes_for(const Options& opts) {
  if (opts.tiny()) return {8, 10, 2, 1};
  return {32, 180, 4, 3};
}

/// Probe cadence of the traced run, in sim ticks.
constexpr net::SimTime kProbeCadence = 64;
/// A heal or catch-up that has not converged after this many ticks failed.
constexpr net::SimTime kConvergeTickCap = 100'000;

/// One SimNet plus its nodes. The nodes hold the net by reference, so they
/// are declared (and destroyed) after it.
struct Cluster {
  std::unique_ptr<SimNet> net;
  std::vector<std::unique_ptr<NetNode>> nodes;
};

Cluster build_cluster(std::uint64_t seed, const Sizes& sizes) {
  Cluster c;
  c.net = std::make_unique<SimNet>(seed);
  c.net->set_default_link(net::LinkParams{1, 4, 0, 1});
  c.net->set_trace_mode(net::TraceMode::kOff);
  for (std::size_t i = 0; i < sizes.nodes; ++i) {
    auto key = crypto::KeyPair::from_seed(crypto::Hasher(crypto::Domain::kGeneric)
                                              .write_str("zbench-net-node")
                                              .write_u64(seed)
                                              .write_u64(i)
                                              .finalize());
    c.nodes.push_back(
        std::make_unique<NetNode>(*c.net, mainchain::ChainParams{}, key));
  }
  return c;
}

struct Round {
  std::vector<double> block_ms, heal_ms, heal_ticks;
  std::vector<double> other_ms;  ///< drains after heals, the rejoin
  double catchup_ticks = 0;
  double wall_ms = 0;
  std::uint64_t blocks = 0;
  // Traced only.
  double mine_connect_ms = 0;  ///< miners' own connect time inside mine()
  std::uint64_t probe_samples = 0;
  Snapshot net, mc, sim;
  std::vector<Block> chain;  ///< final active chain, genesis excluded
};

/// Drives one round on a fresh cluster. With a tracer, spans go around
/// every mine/announce/run call and a MetricsProbe samples the cluster.
class RoundRunner {
 public:
  RoundRunner(Cluster& c, Tracer* tracer, Round& out)
      : c_(c), tracer_(tracer), out_(out) {
    if (tracer_ != nullptr) {
      std::vector<NetNode*> ptrs;
      for (auto& n : c_.nodes) ptrs.push_back(n.get());
      probe_ = std::make_unique<sim::MetricsProbe>(*c_.net, ptrs,
                                                   kProbeCadence);
    }
  }

  /// Mines on `miner` and waits for the network to go idle.
  void mine(std::size_t miner, std::uint64_t group) {
    auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer_, "net.mine", group);
      const obs::Histogram* h = nullptr;
      std::uint64_t before = 0;
      if (tracer_ != nullptr) {
        h = c_.nodes[miner]->chain().registry().histogram(
            "mc.connect_block_ns", obs::Determinism::kWallClock);
        before = h->sum();
      }
      c_.nodes[miner]->mine();
      if (h != nullptr) {
        out_.mine_connect_ms += static_cast<double>(h->sum() - before) / 1e6;
      }
    }
    run_idle(group);
    out_.block_ms.push_back(ms_since(t0));
    ++out_.blocks;
  }

  void run_idle(std::uint64_t group) {
    Tracer::Scope span(tracer_, "sim.run", group);
    if (probe_) {
      probe_->run_until_idle(/*final_sample=*/false);
    } else {
      c_.net->run_until_idle();
    }
  }

  void announce(const std::vector<NodeId>& who, std::uint64_t group) {
    Tracer::Scope span(tracer_, "net.announce", group);
    for (NodeId id : who) c_.nodes[id]->announce_tip();
  }

  /// Advances sim time tick by tick until `done()`; returns the ticks
  /// taken, or nullopt when the network went idle (or hit the cap) first.
  template <class Done>
  std::optional<net::SimTime> run_until_converged(Done done,
                                                  std::uint64_t group) {
    Tracer::Scope span(tracer_, "sim.run", group);
    const net::SimTime start = c_.net->now();
    while (!done()) {
      if (!c_.net->next_event_time() ||
          c_.net->now() - start > kConvergeTickCap) {
        return std::nullopt;
      }
      if (probe_) {
        probe_->run_until(c_.net->now() + 1);
      } else {
        c_.net->run_until(c_.net->now() + 1);
      }
    }
    return c_.net->now() - start;
  }

  [[nodiscard]] bool tips_equal(const std::vector<NodeId>& who) const {
    for (NodeId id : who) {
      if (c_.nodes[id]->tip() != c_.nodes[who.front()]->tip()) return false;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t probe_samples() const {
    return probe_ ? probe_->samples().size() : 0;
  }

 private:
  Cluster& c_;
  Tracer* tracer_;
  Round& out_;
  std::unique_ptr<sim::MetricsProbe> probe_;
};

Round run_round(std::uint64_t seed, const Sizes& sizes, Cluster& c,
                Tracer* tracer, std::uint64_t round, Report& report) {
  Round out;
  RoundRunner d(c, tracer, out);
  crypto::Rng rng(seed ^ 0x6e657400ULL);
  const NodeId iso = static_cast<NodeId>(sizes.nodes - 1);
  std::vector<NodeId> active;
  for (NodeId i = 0; i < iso; ++i) active.push_back(i);
  std::uint64_t group = round * 1'000'000;
  auto t_round = Clock::now();

  // Relay: round-robin mining over the connected nodes; every block must
  // reach every one of them.
  c.net->partition({active, {iso}});
  for (std::size_t k = 0; k < sizes.relay_blocks; ++k) {
    d.mine(active[k % active.size()], ++group);
    report.check(d.tips_equal(active),
                 "relay: a node does not hold the newest block");
  }

  // Partition cycles: both halves mine (one side longer), heal, re-announce.
  for (std::size_t cycle = 0; cycle < sizes.cycles; ++cycle) {
    std::vector<NodeId> order = active;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    std::vector<NodeId> side_a(order.begin(),
                               order.begin() + static_cast<std::ptrdiff_t>(
                                                   order.size() / 2));
    std::vector<NodeId> side_b(order.begin() + static_cast<std::ptrdiff_t>(
                                                   order.size() / 2),
                               order.end());
    std::size_t len_a = 2 + rng.next_below(4);
    std::size_t len_b = len_a + 1 + rng.next_below(2);
    if (rng.chance(1, 2)) std::swap(len_a, len_b);
    c.net->partition({side_a, side_b, {iso}});
    for (std::size_t k = 0; k < len_a; ++k) d.mine(side_a[k % side_a.size()], ++group);
    for (std::size_t k = 0; k < len_b; ++k) d.mine(side_b[k % side_b.size()], ++group);
    const crypto::Digest winner =
        c.nodes[(len_a > len_b ? side_a : side_b).front()]->tip();

    ++group;
    c.net->partition({active, {iso}});
    auto t0 = Clock::now();
    d.announce(active, group);
    auto ticks = d.run_until_converged([&] { return d.tips_equal(active); },
                                       group);
    out.heal_ms.push_back(ms_since(t0));
    report.check(ticks.has_value() && c.nodes[active.front()]->tip() == winner,
                 "heal: the cluster did not converge on the longer branch");
    out.heal_ticks.push_back(ticks ? static_cast<double>(*ticks) : 0);
    t0 = Clock::now();
    d.run_idle(group);
    out.other_ms.push_back(ms_since(t0));
  }

  // Rejoin: the node isolated since the start catches up from its peers.
  ++group;
  auto t_rejoin = Clock::now();
  c.net->heal();
  d.announce(active, group);
  auto ticks = d.run_until_converged(
      [&] { return c.nodes[iso]->tip() == c.nodes[active.front()]->tip(); },
      group);
  report.check(ticks.has_value(), "rejoin: the isolated node did not catch up");
  out.catchup_ticks = ticks ? static_cast<double>(*ticks) : 0;
  d.run_idle(group);
  out.other_ms.push_back(ms_since(t_rejoin));
  out.wall_ms = ms_since(t_round);

  // The final tip must equal a from-genesis replay of the active chain.
  std::vector<NodeId> all = active;
  all.push_back(iso);
  report.check(d.tips_equal(all), "final: tips differ across the cluster");
  const auto& ref = c.nodes[0]->chain();
  mainchain::Blockchain replay(mainchain::ChainParams{});
  bool replay_ok = true;
  for (std::uint64_t h = 1; h <= ref.height(); ++h) {
    const Block& b = *ref.find_block(ref.hash_at_height(h));
    replay_ok = replay.submit_block(b).accepted() && replay_ok;
    if (tracer != nullptr) out.chain.push_back(b);
  }
  report.check(replay_ok && replay.tip_hash() == ref.tip_hash() &&
                   replay.state().state_fingerprint() ==
                       c.nodes[iso]->chain().state().state_fingerprint(),
               "final: tip differs from a from-genesis replay");
  std::uint64_t dos = 0;
  for (const auto& n : c.nodes) dos += n->stats().dos_events;
  report.check(dos == 0, "a node scored misbehavior (net.dos_events > 0)");

  if (tracer != nullptr) {
    for (const auto& n : c.nodes) {
      accumulate(out.net, snapshot(n->registry()));
      accumulate(out.mc, snapshot(n->chain().registry()));
    }
    out.sim = snapshot(c.net->registry());
    out.probe_samples = d.probe_samples();
  }
  return out;
}

}  // namespace

void run_net_cluster(const Options& opts, Report& report) {
  const Sizes sizes = sizes_for(opts);
  std::vector<double> setup_s, heal_ticks, catchup, untraced_ms;
  std::vector<std::vector<double>> block_ms, heal_ms, other_ms;
  std::uint64_t blocks = 0, round = 0;

  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::size_t min_rounds = opts.trace ? 1 : sizes.min_rounds;
  auto t_phase = Clock::now();
  while (round < min_rounds || ms_since(t_phase) < untraced_s * 1e3) {
    auto t0 = Clock::now();
    Cluster c = build_cluster(opts.seed, sizes);
    setup_s.push_back(ms_since(t0) / 1e3);
    Round r = run_round(opts.seed, sizes, c, nullptr, round++, report);
    heal_ticks.insert(heal_ticks.end(), r.heal_ticks.begin(),
                      r.heal_ticks.end());
    block_ms.push_back(std::move(r.block_ms));
    heal_ms.push_back(r.heal_ms);
    r.other_ms.insert(r.other_ms.end(), r.heal_ms.begin(), r.heal_ms.end());
    other_ms.push_back(std::move(r.other_ms));
    if (!catchup.empty()) {
      report.check(r.catchup_ticks == catchup.front(),
                   "catch-up ticks differ between rounds of one seed");
    }
    catchup.push_back(r.catchup_ticks);
    untraced_ms.push_back(r.wall_ms);
    blocks = r.blocks;
  }
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.block_figures(block_ms, other_ms, blocks);
  report.timing("heal_ms", best_of(heal_ms), /*with_p95=*/false);
  report.set("heal_ticks_p50", median(heal_ticks), "ticks", heal_ticks.size());
  report.set("catchup_ticks", median(catchup), "ticks", catchup.size());
  if (!opts.trace) return;

  // Traced rounds: spans, a MetricsProbe, registry sums over the cluster.
  Tracer tracer;
  std::vector<double> traced_ms;
  Round first;
  auto t_traced = Clock::now();
  std::size_t traced = 0;
  while (traced < 1 || ms_since(t_traced) < opts.seconds / 2 * 1e3) {
    Cluster c = build_cluster(opts.seed, sizes);
    Round r = run_round(opts.seed, sizes, c, &tracer, round++, report);
    traced_ms.push_back(r.wall_ms);
    if (traced == 0) {
      first = std::move(r);
    } else {
      report.check(value_of(r.sim, "sim.events_processed") ==
                           value_of(first.sim, "sim.events_processed") &&
                       value_of(r.net, "net.msgs_sent") ==
                           value_of(first.net, "net.msgs_sent"),
                   "per-layer counts differ between traced rounds");
    }
    ++traced;
  }
  if (!opts.spans_out.empty()) tracer.write(opts.spans_out);
  const double per_round = 1.0 / static_cast<double>(traced);
  const double mine_ms =
      (tracer.total_ms("net.mine") + tracer.total_ms("net.announce")) *
      per_round;
  const double run_ms = tracer.total_ms("sim.run") * per_round;

  // Replay of the final chain: hashing (PoW re-solved to the same nonce),
  // merkle roots and the codec.
  BlockReplay rep;
  replay_blocks(first.chain, rep, report);
  double pow_ms = 0;
  bool pow_ok = true;
  for (const Block& b : first.chain) {
    Block copy = b;
    auto t0 = Clock::now();
    mainchain::Miner::solve_pow(copy, mainchain::ChainParams{}.pow_target);
    pow_ms += ms_since(t0);
    pow_ok = copy.header.nonce == b.header.nonce && pow_ok;
  }
  report.check(pow_ok, "replay: re-solved PoW nonce differs");
  report_replay(rep, report);
  report.set("crypto.hash_ms", rep.hash_ms + pow_ms, "ms");

  report_mc(first.mc, report);
  const char* net_counts[] = {
      "net.blocks_received",   "net.duplicates",
      "net.wire_dedup_hits",   "net.encode_cache_hits",
      "net.encode_cache_misses", "net.blocks_downloaded",
      "net.stalled_rerequests", "net.dos_events"};
  for (const char* name : net_counts) {
    report.set(name, static_cast<double>(value_of(first.net, name)), "count");
  }
  const char* types[] = {"block", "get_headers", "headers", "get_data",
                         "not_found"};
  for (const char* t : types) {
    report.set(std::string("net.msgs_sent.") + t,
               static_cast<double>(value_of(
                   first.net, std::string("net.msgs_sent{type=") + t + "}")),
               "count");
  }
  const double block_msgs = static_cast<double>(
      value_of(first.net, "net.msgs_received{type=block}"));
  const double dedup = static_cast<double>(value_of(first.net, "net.wire_dedup_hits"));
  report.set("net.dedup_ratio", block_msgs > 0 ? dedup / block_msgs : 0,
             "ratio");
  report.set("net.mine_ms", mine_ms, "ms");
  const char* sim_counts[] = {"sim.events_processed", "sim.delivered",
                              "sim.timers_fired"};
  for (const char* name : sim_counts) {
    report.set(name, static_cast<double>(value_of(first.sim, name)), "count");
  }
  report.set("sim.bytes_queued",
             static_cast<double>(value_of(first.sim, "sim.bytes_queued")),
             "bytes");
  report.set("sim.run_ms", run_ms, "ms");
  report.set("sim.events_per_s",
             static_cast<double>(value_of(first.sim, "sim.events_processed")) /
                 (run_ms / 1e3),
             "1/s");
  report.set("sim.deliveries_per_block",
             static_cast<double>(value_of(first.sim, "sim.delivered")) /
                 static_cast<double>(first.blocks),
             "count");
  report.set("obs.probe_samples", static_cast<double>(first.probe_samples),
             "count");

  // Ledger of one round. net: mine/announce spans; inside them the miner's
  // own connect (registry) and one encode and PoW per mined block. sim:
  // run spans (the NetNode handlers run inside the event loop, so their
  // own logic is sim self time); inside them every other connect and
  // disconnect (registry), and one decode and hash per block message that
  // got past the wire dedup, plus the encodes beyond one per mined block.
  const double n_chain = static_cast<double>(std::max<std::size_t>(1, first.chain.size()));
  const double per_encode = rep.encode_ms / n_chain;
  const double per_decode = rep.decode_ms / n_chain;
  const double per_hash = rep.hash_ms / n_chain;
  const double per_pow = pow_ms / n_chain;
  const double mined = static_cast<double>(first.blocks);
  const double all_connect_ms =
      static_cast<double>(value_of(first.mc, "mc.connect_block_ns.sum") +
                          value_of(first.mc, "mc.disconnect_block_ns.sum")) /
      1e6;
  const double decodes = std::max(0.0, block_msgs - dedup);
  const double encodes = static_cast<double>(
      value_of(first.net, "net.encode_cache_misses"));
  LedgerNode net_node{"net",
                      mine_ms,
                      {{"mc", first.mine_connect_ms + per_encode * mined, {}},
                       {"crypto", per_pow * mined, {}}}};
  LedgerNode sim_node{
      "sim",
      run_ms,
      {{"mc",
        std::max(0.0, all_connect_ms - first.mine_connect_ms) +
            per_decode * decodes +
            per_encode * std::max(0.0, encodes - mined),
        {}},
       {"crypto", per_hash * decodes, {}}}};
  double wall = 0;
  for (double ms : traced_ms) wall += ms;
  wall *= per_round;
  report.ledger(wall, {net_node, sim_node});
  report.set("ledger.untraced_wall_ms", median(untraced_ms), "ms");
  report.set("ledger.trace_overhead_frac",
             median(traced_ms) / median(untraced_ms) - 1, "ratio");
}

}  // namespace zbench
