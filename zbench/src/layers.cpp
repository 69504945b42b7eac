#include "layers.hpp"

#include <algorithm>

#include "crypto/ecc.hpp"
#include "mainchain/codec.hpp"

namespace zbench {

using zendoo::mainchain::Block;

Snapshot snapshot(const zendoo::obs::Registry& registry) {
  Snapshot out;
  for (const auto& s : registry.collect(/*include_wall_clock=*/true)) {
    out[s.name] = s.value;
  }
  return out;
}

namespace {

bool is_max(const std::string& name) {
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".max") == 0;
}

}  // namespace

void accumulate(Snapshot& into, const Snapshot& add) {
  for (const auto& [name, v] : add) {
    std::uint64_t& slot = into[name];
    slot = is_max(name) ? std::max(slot, v) : slot + v;
  }
}

Snapshot delta(const Snapshot& after, const Snapshot& before) {
  Snapshot out;
  for (const auto& [name, v] : after) {
    // A histogram maximum has no delta; the later value stands.
    out[name] = is_max(name) ? v : v - value_of(before, name);
  }
  return out;
}

std::uint64_t value_of(const Snapshot& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0 : it->second;
}

void replay_blocks(const std::vector<Block>& blocks, BlockReplay& out,
                   Report& report) {
  for (const Block& b : blocks) {
    auto t0 = Clock::now();
    zendoo::crypto::Digest hash = b.hash();
    for (const auto& tx : b.transactions) (void)tx.id();
    out.hash_ms += ms_since(t0);

    t0 = Clock::now();
    bool roots_ok = b.compute_tx_merkle_root() == b.header.tx_merkle_root;
    out.tx_root_ms += ms_since(t0);
    t0 = Clock::now();
    roots_ok = roots_ok &&
               b.build_commitment_tree().root() == b.header.sc_txs_commitment;
    out.commitment_ms += ms_since(t0);
    report.check(roots_ok, "replay: merkle roots differ from the header at "
                           "height " + std::to_string(b.header.height));

    t0 = Clock::now();
    std::vector<std::uint8_t> wire = zendoo::mainchain::codec::encode_block(b);
    out.encode_ms += ms_since(t0);
    t0 = Clock::now();
    Block decoded = zendoo::mainchain::codec::decode_block(wire);
    out.decode_ms += ms_since(t0);
    report.check(decoded.hash() == hash &&
                     zendoo::mainchain::codec::encode_block(decoded) == wire,
                 "replay: codec round trip changed the block at height " +
                     std::to_string(b.header.height));

    bool sigs_ok = true;
    t0 = Clock::now();
    for (const auto& tx : b.transactions) {
      if (tx.is_coinbase) continue;
      zendoo::crypto::Digest signing = tx.signing_digest();
      for (const auto& in : tx.inputs) {
        ++out.sig_verifies;
        sigs_ok =
            zendoo::crypto::verify_signature(in.pubkey, signing, in.sig) &&
            sigs_ok;
      }
    }
    out.sig_verify_ms += ms_since(t0);
    report.check(sigs_ok, "replay: a signature fails to verify at height " +
                              std::to_string(b.header.height));
  }
}

void replay_snarks(const std::vector<SnarkCheck>& checks, BlockReplay& out,
                   Report& report) {
  bool ok = true;
  auto t0 = Clock::now();
  for (const SnarkCheck& c : checks) {
    ok = zendoo::snark::PredicateSnark::verify(c.vk, c.statement, c.proof) &&
         ok;
  }
  out.snark_verify_ms += ms_since(t0);
  out.snark_verifies += checks.size();
  report.check(ok, "replay: a recorded SNARK proof fails to verify");
}

void report_replay(const BlockReplay& r, Report& report) {
  report.set("crypto.sig_verifies", static_cast<double>(r.sig_verifies),
             "count");
  report.set("crypto.sig_verify_ms", r.sig_verify_ms, "ms");
  report.set("crypto.hash_ms", r.hash_ms, "ms");
  report.set("snark.verifies", static_cast<double>(r.snark_verifies), "count");
  report.set("snark.verify_ms", r.snark_verify_ms, "ms");
  report.set("merkle.tx_root_ms", r.tx_root_ms, "ms");
  report.set("merkle.commitment_ms", r.commitment_ms, "ms");
  report.set("mc.codec_encode_ms", r.encode_ms, "ms");
  report.set("mc.codec_decode_ms", r.decode_ms, "ms");
}

void report_par(const Snapshot& par, unsigned threads, double connect_ms,
                Report& report) {
  const char* counts[] = {"par.checks_executed", "par.cache_hits",
                          "par.batches", "par.batch_size.sum"};
  for (const char* name : counts) {
    report.set(name, static_cast<double>(value_of(par, name)), "count");
  }
  double sig_ns =
      static_cast<double>(value_of(par, "par.verify_ns{kind=signature}.sum"));
  double snark_ns =
      static_cast<double>(value_of(par, "par.verify_ns{kind=snark}.sum"));
  report.set("par.verify_ns.signature.sum", sig_ns, "ns");
  report.set("par.verify_ns.snark.sum", snark_ns, "ns");
  double hits = static_cast<double>(value_of(par, "par.cache_hits"));
  double executed = static_cast<double>(value_of(par, "par.checks_executed"));
  report.set("par.cache_hit_ratio",
             hits + executed > 0 ? hits / (hits + executed) : 0, "ratio");
  double busy_ms = (sig_ns + snark_ns) / 1e6;
  report.set("par.utilization",
             connect_ms > 0 ? busy_ms / (threads * connect_ms) : 0, "ratio");
}

void report_mc(const Snapshot& mc, Report& report) {
  report.set("mc.connect_block_ns.sum",
             static_cast<double>(value_of(mc, "mc.connect_block_ns.sum")),
             "ns");
  report.set("mc.connect_block_ns.max",
             static_cast<double>(value_of(mc, "mc.connect_block_ns.max")),
             "ns");
  const char* counts[] = {"mc.connect_block_ns.count", "mc.blocks_connected",
                          "mc.blocks_disconnected",    "mc.reorgs",
                          "mc.reorg_depth.max",        "mc.orphans_buffered",
                          "mc.orphans_evicted",        "mc.rejected",
                          "mc.headers_accepted"};
  for (const char* name : counts) {
    report.set(name, static_cast<double>(value_of(mc, name)), "count");
  }
}

}  // namespace zbench
