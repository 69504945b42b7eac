// Outside-in access to the zendoo layers for the traced run: registry
// snapshots, and replays of recorded MC blocks through the public
// functions of the layers that are only reached from inside another call
// (crypto, snark, merkle, codec). Every replay also checks that it
// reproduces the digests the run produced.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mainchain/block.hpp"
#include "obs/metrics.hpp"
#include "snark/snark.hpp"

namespace zbench {

/// Every sample of a registry (wall-clock metrics included), by name.
using Snapshot = std::map<std::string, std::uint64_t>;

[[nodiscard]] Snapshot snapshot(const zendoo::obs::Registry& registry);
/// Adds `add` into `into`, name by name (".max" entries take the larger).
void accumulate(Snapshot& into, const Snapshot& add);
/// after - before, name by name (names missing from `before` count as 0;
/// a histogram ".max" keeps its `after` value).
[[nodiscard]] Snapshot delta(const Snapshot& after, const Snapshot& before);
[[nodiscard]] std::uint64_t value_of(const Snapshot& s,
                                     const std::string& name);

/// One SNARK verification the MC performs, as recorded from a run.
struct SnarkCheck {
  zendoo::snark::VerifyingKey vk;
  zendoo::snark::Statement statement;
  zendoo::snark::Proof proof;
};

/// Per-layer cost of replaying a set of MC blocks once.
struct BlockReplay {
  std::uint64_t sig_verifies = 0;
  double sig_verify_ms = 0;
  double hash_ms = 0;
  double tx_root_ms = 0;
  double commitment_ms = 0;
  double encode_ms = 0;
  double decode_ms = 0;
  std::uint64_t snark_verifies = 0;
  double snark_verify_ms = 0;
};

/// Replays `blocks` through crypto::verify_signature (every input
/// signature), Block::hash / Transaction::id, the two header merkle roots
/// and the wire codec. Each block must reproduce its recorded hash (the
/// block's own header hash as the run stored it), its header roots and a
/// byte-identical codec round trip; each signature must verify.
void replay_blocks(const std::vector<zendoo::mainchain::Block>& blocks,
                   BlockReplay& out, Report& report);

/// Replays recorded SNARK verifications; every one must pass.
void replay_snarks(const std::vector<SnarkCheck>& checks, BlockReplay& out,
                   Report& report);

/// Reports the crypto/snark/merkle/codec replay metrics, as per-round ms.
void report_replay(const BlockReplay& r, Report& report);

/// Reports the par.* registry metrics of a validation registry delta.
/// `threads` verifying threads ran for `connect_ms` of wall time.
void report_par(const Snapshot& par, unsigned threads, double connect_ms,
                Report& report);

/// Reports the mc.* registry metrics named in the catalogue.
void report_mc(const Snapshot& mc, Report& report);

}  // namespace zbench
