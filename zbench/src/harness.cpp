#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace zbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> best_of(const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) return {};
  std::vector<double> best = rounds.front();
  for (const auto& r : rounds) {
    if (r.size() < best.size()) continue;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], r[i]);
    }
  }
  return best;
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

// ---- Tracer ------------------------------------------------------------

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count());
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t group)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.group = group;
  span.parent = tracer_->open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(tracer_->open_.back());
  span.start_ns = tracer_->now_ns();
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

double Tracer::total_ms(const std::string& name) const {
  std::uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("zbench: cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << "}\n";
  }
}

// ---- Report ------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  if (!metrics_.contains(name)) order_.push_back(name);
  metrics_[name] = Metric{value, unit, samples};
}

void Report::timing(const std::string& prefix,
                    const std::vector<double>& samples, bool with_p95) {
  set(prefix + "_p50", percentile(samples, 0.5), "ms", samples.size());
  if (with_p95) {
    set(prefix + "_p95", percentile(samples, 0.95), "ms", samples.size());
  }
}

void Report::block_figures(const std::vector<std::vector<double>>& block_ms,
                           const std::vector<std::vector<double>>& other_ms,
                           std::uint64_t blocks) {
  std::vector<double> best = best_of(block_ms);
  double round_ms = sum(best) + sum(best_of(other_ms));
  set("blocks_per_s", static_cast<double>(blocks) / (round_ms / 1e3), "1/s",
      block_ms.size());
  timing("block_ms", best, /*with_p95=*/true);
}

namespace {

/// Self time of `node` (and, recursively, of its children) folded into
/// `self` per layer; the children are scaled so they never exceed the
/// parent's busy time. Returns the node's busy time after scaling.
void fold_ledger(const LedgerNode& node, double scale,
                 std::map<std::string, double>& busy,
                 std::map<std::string, double>& self) {
  double node_busy = node.busy_ms * scale;
  double children = 0;
  for (const LedgerNode& c : node.children) children += c.busy_ms * scale;
  double child_scale = scale;
  if (children > node_busy && children > 0) {
    child_scale = scale * node_busy / children;
    children = node_busy;
  }
  busy[node.layer] += node_busy;
  self[node.layer] += node_busy - children;
  for (const LedgerNode& c : node.children) {
    fold_ledger(c, child_scale, busy, self);
  }
}

}  // namespace

void Report::ledger(double wall_ms, const std::vector<LedgerNode>& top) {
  std::map<std::string, double> busy, self;
  double top_busy = 0;
  for (const LedgerNode& n : top) top_busy += n.busy_ms;
  double scale = top_busy > wall_ms && top_busy > 0 ? wall_ms / top_busy : 1;
  for (const LedgerNode& n : top) fold_ledger(n, scale, busy, self);
  double attributed = 0;
  for (const std::string& layer : ledger_layers()) {
    double s = self.contains(layer) ? self[layer] : 0;
    attributed += s;
    set("ledger." + layer + ".busy_ms", busy.contains(layer) ? busy[layer] : 0,
        "ms");
    set("ledger." + layer + ".self_ms", s, "ms");
    set("ledger." + layer + ".self_frac", wall_ms > 0 ? s / wall_ms : 0,
        "ratio");
  }
  double rest = std::max(0.0, wall_ms - attributed);
  set("ledger.wall_ms", wall_ms, "ms");
  set("ledger.unattributed_ms", rest, "ms");
  set("ledger.unattributed_frac", wall_ms > 0 ? rest / wall_ms : 0, "ratio");
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(
    const std::vector<std::pair<std::string, std::string>>& emit) const {
  for (const std::string& f : failures_) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    if (m.samples > 0) {
      std::printf("%-36s %16.6f %-6s (n=%zu)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : emit) {
    auto it = metrics_.find(name);
    double value = it == metrics_.end() ? 0 : it->second.value;
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(value) +
            ", \"unit\": \"" + unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---- Metric catalogue -----------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"blocks_per_s", "1/s"},
      {"block_ms_p50", "ms"},
      {"block_ms_p95", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        // Workload-specific end-to-end figures (untraced pass).
        {"epoch_block_ms_p50", "ms"},
        {"reorg_ms_p50", "ms"},
        {"heal_ms_p50", "ms"},
        {"heal_ticks_p50", "ticks"},
        {"catchup_ticks", "ticks"},
        {"failed_frac", "ratio"},
        // crypto
        {"crypto.sig_verifies", "count"},
        {"crypto.sig_verify_ms", "ms"},
        {"crypto.hash_ms", "ms"},
        // snark
        {"snark.verifies", "count"},
        {"snark.verify_ms", "ms"},
        {"snark.base_proofs", "count"},
        {"snark.merge_proofs", "count"},
        {"snark.recursion_depth", "count"},
        // merkle
        {"merkle.commitment_ms", "ms"},
        {"merkle.tx_root_ms", "ms"},
        // mainchain
        {"mc.submit_ms", "ms"},
        {"mc.connect_block_ns.sum", "ns"},
        {"mc.connect_block_ns.count", "count"},
        {"mc.connect_block_ns.max", "ns"},
        {"mc.codec_encode_ms", "ms"},
        {"mc.codec_decode_ms", "ms"},
        {"mc.blocks_connected", "count"},
        {"mc.blocks_disconnected", "count"},
        {"mc.reorgs", "count"},
        {"mc.reorg_depth.max", "count"},
        {"mc.orphans_buffered", "count"},
        {"mc.orphans_evicted", "count"},
        {"mc.rejected", "count"},
        {"mc.headers_accepted", "count"},
        // parallel
        {"par.checks_executed", "count"},
        {"par.cache_hits", "count"},
        {"par.batches", "count"},
        {"par.batch_size.sum", "count"},
        {"par.verify_ns.signature.sum", "ns"},
        {"par.verify_ns.snark.sum", "ns"},
        {"par.cache_hit_ratio", "ratio"},
        {"par.utilization", "ratio"},
        // latus
        {"latus.observe_ms", "ms"},
        {"latus.forge_ms", "ms"},
        {"latus.build_certificate_ms", "ms"},
        {"latus.rollback_ms", "ms"},
        {"latus.sc_blocks", "count"},
        {"latus.payments_submitted", "count"},
        {"latus.payments_applied", "count"},
        {"latus.payment_accept_ratio", "ratio"},
        {"latus.certificates", "count"},
        {"latus.csws", "count"},
        // core
        {"core.step_ms", "ms"},
        {"core.step_self_ms", "ms"},
        {"core.resync_ms", "ms"},
        {"core.resync_rebuilds", "count"},
        // net
        {"net.mine_ms", "ms"},
        {"net.msgs_sent.block", "count"},
        {"net.msgs_sent.get_headers", "count"},
        {"net.msgs_sent.headers", "count"},
        {"net.msgs_sent.get_data", "count"},
        {"net.msgs_sent.not_found", "count"},
        {"net.blocks_received", "count"},
        {"net.duplicates", "count"},
        {"net.wire_dedup_hits", "count"},
        {"net.encode_cache_hits", "count"},
        {"net.encode_cache_misses", "count"},
        {"net.blocks_downloaded", "count"},
        {"net.stalled_rerequests", "count"},
        {"net.dos_events", "count"},
        {"net.dedup_ratio", "ratio"},
        // sim
        {"sim.run_ms", "ms"},
        {"sim.events_processed", "count"},
        {"sim.delivered", "count"},
        {"sim.bytes_queued", "bytes"},
        {"sim.timers_fired", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.deliveries_per_block", "count"},
        // ledger
        {"ledger.wall_ms", "ms"},
        {"ledger.untraced_wall_ms", "ms"},
        {"ledger.unattributed_ms", "ms"},
        {"ledger.unattributed_frac", "ratio"},
        {"ledger.trace_overhead_frac", "ratio"},
        {"obs.probe_samples", "count"},
    };
    for (const std::string& layer : ledger_layers()) {
      v.emplace_back("ledger." + layer + ".busy_ms", "ms");
      v.emplace_back("ledger." + layer + ".self_ms", "ms");
      v.emplace_back("ledger." + layer + ".self_frac", "ratio");
    }
    return v;
  }();
  return m;
}

}  // namespace zbench
