// Scenario layer over SimNet + NetNode: a scripted (or seeded-random)
// schedule of mining, partitions, heals and link degradation, plus the
// convergence driver the §5.1 tests assert against.
//
// A scenario is pure data — a time-sorted list of typed events — so a
// failing randomized run can be reproduced exactly from its seed, and a
// hand-written race (examples/network_race.cpp) reads like the prose
// description of the experiment.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_map>
#include <variant>

#include "mainchain/codec.hpp"
#include "mainchain/miner.hpp"
#include "net/node.hpp"

namespace zendoo::net {

/// One SimNet plus `n` NetNodes with deterministic per-index miner keys —
/// the standard fixture for net tests and benches. Every node shares the
/// same chain parameters.
struct NodeCluster {
  SimNet net;
  std::vector<std::unique_ptr<NetNode>> nodes;

  NodeCluster(std::uint64_t seed, std::size_t n,
              mainchain::ChainParams params = {})
      : net(seed) {
    for (std::size_t i = 0; i < n; ++i) {
      auto key = crypto::KeyPair::from_seed(crypto::Hasher(crypto::Domain::kGeneric)
                                                .write_str("cluster-miner")
                                                .write_u64(i)
                                                .finalize());
      nodes.push_back(std::make_unique<NetNode>(net, params, key));
    }
  }
  NetNode& operator[](std::size_t i) { return *nodes[i]; }
  std::vector<NetNode*> ptrs() {
    std::vector<NetNode*> out;
    out.reserve(nodes.size());
    for (auto& n : nodes) out.push_back(n.get());
    return out;
  }
};

// ---------------------------------------------------------------------
// Adversarial nodes
//
// Wire-level attackers for the DoS/ban layer: each registers a raw
// SimNet endpoint (no Engine, no honest protocol machine) and crafts
// exactly the hostile traffic its attack needs. Honest NetNodes must
// survive each of them — converge with the honest majority, keep their
// orphan pool / in-flight windows bounded, and ban the attacker within
// a bounded number of misbehavior events.
// ---------------------------------------------------------------------

/// Base: a scriptable raw endpoint. Subclasses override on_message to
/// react to victim traffic (serving corrupt data); drive methods inject
/// unsolicited floods.
class AdversaryNode {
 public:
  explicit AdversaryNode(SimNet& net) : net_(net) {
    id_ = net_.add_node([this](NodeId from, const SimNet::PayloadPtr& p) {
      on_message(from, std::span<const std::uint8_t>(p->bytes));
    });
  }
  virtual ~AdversaryNode() = default;
  AdversaryNode(const AdversaryNode&) = delete;
  AdversaryNode& operator=(const AdversaryNode&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  /// Wire messages this adversary pushed (floods + replies).
  [[nodiscard]] std::uint64_t msgs_sent() const { return msgs_sent_; }

 protected:
  virtual void on_message(NodeId /*from*/,
                          std::span<const std::uint8_t> /*payload*/) {}

  void send_msg(NodeId to, MsgType type,
                const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> wire;
    wire.reserve(body.size() + 1);
    wire.push_back(static_cast<std::uint8_t>(type));
    wire.insert(wire.end(), body.begin(), body.end());
    ++msgs_sent_;
    net_.send(id_, to, std::move(wire));
  }

  SimNet& net_;
  NodeId id_ = 0;
  std::uint64_t msgs_sent_ = 0;
};

/// Floods victims with PoW-valid blocks whose ancestry is fabricated —
/// the orphan-pool churn attack. Every block costs the attacker real
/// grinding (parent-free PoW is checked on arrival), lands in the
/// victim's bounded pool, never connects, and is eventually judged junk
/// by the suspect sweep.
class OrphanSpammer : public AdversaryNode {
 public:
  OrphanSpammer(SimNet& net, mainchain::ChainParams params)
      : AdversaryNode(net), params_(std::move(params)) {}

  /// Sends `count` junk orphans to `victim`, heights near `base_height`
  /// so they pass the pool's height-window admission.
  void spam(NodeId victim, std::size_t count, std::uint64_t base_height = 2) {
    for (std::size_t i = 0; i < count; ++i) {
      mainchain::Block junk;
      junk.header.height = base_height + (i % 8);
      junk.header.prev_hash = crypto::Hasher(crypto::Domain::kGeneric)
                                  .write_str("fabricated-parent")
                                  .write_u64(next_serial_++)
                                  .finalize();
      junk.header.tx_merkle_root = junk.compute_tx_merkle_root();
      mainchain::Miner::solve_pow(junk, params_.pow_target);
      send_msg(victim, MsgType::kBlock, mainchain::codec::encode_block(junk));
    }
  }

 private:
  mainchain::ChainParams params_;
  std::uint64_t next_serial_ = 0;
};

/// Serves garbage on the header path: undecodable kHeaders floods,
/// PoW-invalid header batches, and hostile-count (oversized) batches.
/// Answers any kGetHeaders a baited victim sends with undecodable bytes,
/// so an eclipse victim's sync rounds all score against it.
class GarbageHeaderPeer : public AdversaryNode {
 public:
  GarbageHeaderPeer(SimNet& net, mainchain::ChainParams params)
      : AdversaryNode(net), params_(std::move(params)) {}

  /// A PoW-valid orphan bait: triggers the victim's header sync toward
  /// this attacker (on_disconnected_block asks the sender first).
  void bait(NodeId victim) {
    mainchain::Block b;
    b.header.height = 2;
    b.header.prev_hash = crypto::Hasher(crypto::Domain::kGeneric)
                             .write_str("bait-parent")
                             .write_u64(next_serial_++)
                             .finalize();
    b.header.tx_merkle_root = b.compute_tx_merkle_root();
    mainchain::Miner::solve_pow(b, params_.pow_target);
    send_msg(victim, MsgType::kBlock, mainchain::codec::encode_block(b));
  }

  /// Undecodable kHeaders payloads — pure malformed-message spam.
  void flood_garbage(NodeId victim, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      send_msg(victim, MsgType::kHeaders,
               {0xde, 0xad, static_cast<std::uint8_t>(i), 0xbe, 0xef});
    }
  }

  /// A decodable batch of PoW-invalid headers (nonce never ground).
  void send_bogus_batch(NodeId victim, std::size_t count) {
    std::vector<mainchain::BlockHeader> headers(count);
    for (std::size_t i = 0; i < count; ++i) {
      headers[i].height = 1 + i;
      headers[i].prev_hash = crypto::Hasher(crypto::Domain::kGeneric)
                                 .write_str("bogus-header")
                                 .write_u64(next_serial_++)
                                 .finalize();
    }
    send_msg(victim, MsgType::kHeaders, mainchain::codec::encode_headers(headers));
  }

  /// A batch larger than any honest node would request or serve.
  void send_oversized_batch(NodeId victim, std::size_t count) {
    send_msg(victim, MsgType::kHeaders,
             mainchain::codec::encode_headers(
                 std::vector<mainchain::BlockHeader>(count)));
  }

 protected:
  void on_message(NodeId from, std::span<const std::uint8_t> payload) override {
    if (payload.empty()) return;
    if (static_cast<MsgType>(payload.front()) == MsgType::kGetHeaders) {
      flood_garbage(from, 1);  // every sync round the victim tries scores
    }
  }

 private:
  mainchain::ChainParams params_;
  std::uint64_t next_serial_ = 0;
};

/// Mirrors gossiped blocks and serves tampered bodies on kGetData: the
/// header (and thus the hash the victim matched against its request) is
/// authentic, but the body's coinbase is corrupted, so validation fails
/// the merkle binding — an offense worth an instant ban. Headers are
/// never served (kGetHeaders is ignored), so victims learn chain shape
/// from honest peers and only the body path is poisoned.
class InvalidBodyPeer : public AdversaryNode {
 public:
  explicit InvalidBodyPeer(SimNet& net) : AdversaryNode(net) {}

  [[nodiscard]] std::uint64_t bodies_served() const { return bodies_served_; }

 protected:
  void on_message(NodeId from, std::span<const std::uint8_t> payload) override {
    if (payload.empty()) return;
    const auto tag = static_cast<MsgType>(payload.front());
    auto body = payload.subspan(1);
    try {
      if (tag == MsgType::kBlock) {
        // Overhear gossip to learn real blocks worth poisoning.
        mainchain::Block b = mainchain::codec::decode_block(body);
        seen_.emplace(b.hash(), std::move(b));
      } else if (tag == MsgType::kGetData) {
        for (const auto& hash : mainchain::codec::decode_inv(body)) {
          auto it = seen_.find(hash);
          if (it == seen_.end()) continue;
          mainchain::Block poisoned = it->second;
          if (!poisoned.transactions.empty() &&
              !poisoned.transactions.front().outputs.empty()) {
            poisoned.transactions.front().outputs.front().amount += 1;
          }
          ++bodies_served_;
          send_msg(from, MsgType::kBlock,
                   mainchain::codec::encode_block(poisoned));
        }
      }
    } catch (const mainchain::codec::CodecError&) {
      // An adversary has no obligation to parse anything.
    }
  }

 private:
  std::unordered_map<crypto::Digest, mainchain::Block, crypto::DigestHash>
      seen_;
  std::uint64_t bodies_served_ = 0;
};

/// kNotFound fabrication: names blocks nobody ever requested, trying to
/// confuse the victim's download bookkeeping.
class NotFoundAbuser : public AdversaryNode {
 public:
  explicit NotFoundAbuser(SimNet& net) : AdversaryNode(net) {}

  void flood(NodeId victim, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<crypto::Digest> fake{crypto::Hasher(crypto::Domain::kGeneric)
                                           .write_str("never-requested")
                                           .write_u64(next_serial_++)
                                           .finalize()};
      send_msg(victim, MsgType::kNotFound, mainchain::codec::encode_inv(fake));
    }
  }

 private:
  std::uint64_t next_serial_ = 0;
};

/// Eclipse-style attack: cut the victim off so the attacker is its only
/// reachable peer, then poison whatever the victim asks for. The helper
/// owns the partition shape; the attack traffic comes from the base
/// GarbageHeaderPeer behaviour (bait + garbage sync answers).
class EclipseAttacker : public GarbageHeaderPeer {
 public:
  EclipseAttacker(SimNet& net, mainchain::ChainParams params)
      : GarbageHeaderPeer(net, std::move(params)) {}

  /// Partitions the net into {victim, attacker} vs everyone else.
  void eclipse(NodeId victim) {
    net_.partition({{victim, id()}});
  }
  /// Ends the eclipse (the victim's view of the honest net heals).
  void release() { net_.heal(); }
};

/// One scheduled action.
struct ScenarioEvent {
  struct Mine {
    std::size_t node = 0;  ///< index into the runner's node list
    std::size_t count = 1;
  };
  /// Selfish mining: extend a private branch without announcing it.
  struct MineWithheld {
    std::size_t node = 0;
    std::size_t count = 1;
  };
  /// Reveal a withheld branch (or re-advertise after a heal).
  struct Announce {
    std::size_t node = 0;
  };
  struct Partition {
    std::vector<std::vector<NodeId>> groups;
  };
  struct Heal {};
  /// Replace the default link model (latency spike, lossy phase).
  struct Link {
    LinkParams params;
  };

  SimTime at = 0;
  std::variant<Mine, MineWithheld, Announce, Partition, Heal, Link> action;
};

class ScenarioRunner {
 public:
  ScenarioRunner(SimNet& net, std::vector<NetNode*> nodes)
      : net_(net), nodes_(std::move(nodes)) {}

  /// Plays the schedule: the network runs up to each event's time, then
  /// the event fires. Mining broadcasts immediately; heal triggers a tip
  /// re-announcement from every node (how reconnecting peers learn what
  /// they missed).
  void run(std::vector<ScenarioEvent> schedule) {
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const ScenarioEvent& a, const ScenarioEvent& b) {
                       return a.at < b.at;
                     });
    for (const ScenarioEvent& event : schedule) {
      net_.run_until(event.at);
      if (const auto* mine = std::get_if<ScenarioEvent::Mine>(&event.action)) {
        for (std::size_t i = 0; i < mine->count; ++i) {
          nodes_[mine->node]->mine();
        }
      } else if (const auto* withheld =
                     std::get_if<ScenarioEvent::MineWithheld>(&event.action)) {
        for (std::size_t i = 0; i < withheld->count; ++i) {
          nodes_[withheld->node]->mine_withheld();
        }
      } else if (const auto* ann =
                     std::get_if<ScenarioEvent::Announce>(&event.action)) {
        nodes_[ann->node]->announce_tip();
      } else if (const auto* part =
                     std::get_if<ScenarioEvent::Partition>(&event.action)) {
        net_.partition(part->groups);
      } else if (std::get_if<ScenarioEvent::Heal>(&event.action) != nullptr) {
        net_.heal();
        for (NetNode* node : nodes_) node->announce_tip();
      } else if (const auto* link =
                     std::get_if<ScenarioEvent::Link>(&event.action)) {
        net_.set_default_link(link->params);
      }
    }
  }

  [[nodiscard]] bool all_tips_equal() const {
    for (const NetNode* node : nodes_) {
      if (node->tip() != nodes_.front()->tip()) return false;
    }
    return true;
  }

  /// Drives the network to a common tip: heal, restore lossless links,
  /// re-announce, drain — then, while tips still differ (equal-length
  /// branches keep their first-seen tip under the Nakamoto rule), let
  /// `closer` mine a tie-break block so its branch becomes strictly
  /// longest. Returns true once every node agrees.
  bool converge(std::size_t closer = 0, std::size_t max_rounds = 8) {
    net_.heal();
    LinkParams lossless = net_.default_link();
    lossless.drop_num = 0;
    net_.set_default_link(lossless);
    for (NetNode* node : nodes_) node->announce_tip();
    net_.run_until_idle();
    for (std::size_t round = 0; round < max_rounds; ++round) {
      if (all_tips_equal()) return true;
      nodes_[closer]->mine();
      net_.run_until_idle();
      for (NetNode* node : nodes_) node->announce_tip();
      net_.run_until_idle();
    }
    return all_tips_equal();
  }

 private:
  SimNet& net_;
  std::vector<NetNode*> nodes_;
};

/// Seeded random race: `cycles` partition/heal rounds, each splitting the
/// nodes in two and letting both sides mine concurrently, with occasional
/// latency spikes and lossy phases. Deterministic in (rng state, shape
/// arguments); every event lands strictly before the returned end time.
inline std::vector<ScenarioEvent> make_random_race(crypto::Rng& rng,
                                                   std::size_t n_nodes,
                                                   std::size_t cycles,
                                                   std::size_t mines_per_side,
                                                   SimTime* end_time = nullptr) {
  std::vector<ScenarioEvent> schedule;
  SimTime t = 1;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    // Random two-way split with both sides non-empty.
    std::vector<NodeId> side_a, side_b;
    for (NodeId id = 0; id < n_nodes; ++id) {
      (rng.chance(1, 2) ? side_a : side_b).push_back(id);
    }
    if (side_a.empty()) side_a.push_back(side_b.back()), side_b.pop_back();
    if (side_b.empty()) side_b.push_back(side_a.back()), side_a.pop_back();
    schedule.push_back({t, ScenarioEvent::Partition{{side_a, side_b}}});

    if (rng.chance(1, 3)) {  // lossy / slow phase for this cycle
      LinkParams degraded;
      degraded.latency_min = 1 + rng.next_below(4);
      degraded.latency_max = degraded.latency_min + rng.next_below(8);
      degraded.drop_num = static_cast<std::uint32_t>(rng.next_below(3));
      degraded.drop_den = 10;
      schedule.push_back({t, ScenarioEvent::Link{degraded}});
    }

    // Both sides mine concurrently at random offsets — the race.
    for (std::size_t i = 0; i < mines_per_side; ++i) {
      schedule.push_back(
          {t + 1 + rng.next_below(20),
           ScenarioEvent::Mine{side_a[rng.next_below(side_a.size())], 1}});
      schedule.push_back(
          {t + 1 + rng.next_below(20),
           ScenarioEvent::Mine{side_b[rng.next_below(side_b.size())], 1}});
    }
    t += 25;
    schedule.push_back({t, ScenarioEvent::Heal{}});
    schedule.push_back({t, ScenarioEvent::Link{LinkParams{}}});
    t += 15;
  }
  if (end_time != nullptr) *end_time = t;
  return schedule;
}

}  // namespace zendoo::net
