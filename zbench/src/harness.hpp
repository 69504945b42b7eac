// Shared machinery of the end-to-end benchmark: command-line options,
// wall clocks, sample statistics, the span recorder of the traced run, the
// per-layer time ledger and the result report with its JSON last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "full" for measured runs; "tiny" shrinks every workload to a few
  /// blocks for the self-test.
  std::string scale = "full";
  /// Fault injected into the generated inputs ("" = none): "sig" flips
  /// one signature bit, so the correctness checks must report a failure.
  std::string corrupt;
  /// Where the traced run writes its spans ("" = keep them in memory).
  std::string spans_out;

  [[nodiscard]] bool tiny() const { return scale == "tiny"; }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (q in [0,1]) of `v`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Element-wise minimum over rounds that replayed identical inputs (so
/// their sample vectors line up): each entry is the best of its
/// repetitions, which filters out interference from other tenants of a
/// shared host. Rounds shorter than the first are ignored.
[[nodiscard]] std::vector<double> best_of(
    const std::vector<std::vector<double>>& rounds);
[[nodiscard]] double sum(const std::vector<double>& v);

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Spans of the traced run. Each span has a name, a start and an end
/// (ns since the tracer was created), the index of its parent span (-1
/// for a root) and a group id shared by every span of one block. Spans
/// are only recorded around calls the benchmark itself makes.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t group = 0;
  };

  /// RAII span; a null tracer makes it inert, so untraced runs pay only a
  /// branch.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t group);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Sum of the durations of spans called `name`, in ms.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::uint64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// One node of a workload's attribution tree: a layer's busy time and the
/// part of it that layers it calls account for. A layer's self time is its
/// busy time minus its children's (children are scaled down when their
/// estimates exceed the parent, so self times are never negative).
struct LedgerNode {
  std::string layer;
  double busy_ms = 0;
  std::vector<LedgerNode> children;
};

/// Layers of the ledger, in stack order.
inline const std::vector<std::string>& ledger_layers() {
  static const std::vector<std::string> layers = {
      "crypto", "snark", "merkle", "mc", "par",
      "latus",  "core",  "net",    "sim"};
  return layers;
}

/// The result of one benchmark run: attempted/failed operations, the
/// metrics in emission order and the failure descriptions.
class Report {
 public:
  struct Metric {
    double value = 0;
    std::string unit;
    std::size_t samples = 0;  ///< 0 = not a sampled timing
  };

  /// Counts one operation; records a failure when !ok.
  void check(bool ok, const std::string& what);
  /// Counts `n` operations that all succeeded.
  void succeeded(std::uint64_t n) { attempted_ += n; }

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  /// p50 (and p95 when asked) of `samples` under `prefix` + "_p50"/"_p95".
  void timing(const std::string& prefix, const std::vector<double>& samples,
              bool with_p95);

  /// Sets blocks_per_s, block_ms_p50 and block_ms_p95 from rounds that
  /// replayed identical inputs. `block_ms[r]` holds round r's per-block
  /// times and `other_ms[r]` its other timed pieces (reorgs, heals, ...),
  /// in the same order every round. Each piece counts at its best over the
  /// rounds; blocks_per_s divides `blocks` (per round) by the sum of the
  /// best pieces.
  void block_figures(const std::vector<std::vector<double>>& block_ms,
                     const std::vector<std::vector<double>>& other_ms,
                     std::uint64_t blocks);

  /// Adds the ledger.* metrics for one workload: per-layer busy/self time
  /// and share of `wall_ms`, plus the unattributed remainder. The layer
  /// self times and the remainder sum to `wall_ms`.
  void ledger(double wall_ms, const std::vector<LedgerNode>& top);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }

  /// Prints one human-readable line per metric, then the JSON result line
  /// holding exactly the metrics named in `emit`.
  void print(const std::vector<std::pair<std::string, std::string>>& emit)
      const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
};

/// Metric names and units of the untraced JSON line (every workload).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// Metric names and units of the traced JSON line (every workload; a layer
/// a workload does not use reports 0).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// Workload entry points. Each fills `report` and returns normally; a
// correctness failure is a failed check, not an exception.
void run_mc_proofheavy(const Options& opts, Report& report);
void run_sc_epochs(const Options& opts, Report& report);
void run_net_cluster(const Options& opts, Report& report);

}  // namespace zbench
