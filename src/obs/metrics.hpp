// Lock-cheap metrics registry.
//
// The subsystems each grew ad-hoc counter structs (SimNet::Stats,
// NetNode::Stats, ValidationStats) with no shared schema and no way to
// enumerate, sample or export them uniformly. This registry gives every
// layer one vocabulary without changing how the hot paths count:
//
//  - Counter / Gauge are plain uint64 wrappers with implicit conversion,
//    so `++stats_.delivered` and `stats().delivered - d0` compile (and
//    cost) exactly what they did as raw integers — migration is a type
//    change, not a call-site rewrite, and observable values are pinned
//    by differential tests.
//  - Histogram buckets by bit width (fixed log2 scale, 65 buckets), so
//    recording is a bit_width + two adds — no allocation, no search.
//  - AtomicCounter / AtomicHistogram are the thread-safe variants for
//    the CheckQueue worker pool; increments are relaxed atomics (the
//    values are statistics, not synchronization).
//  - Registry maps names to metrics. Hot paths hold raw pointers (or
//    own the metric struct and merely *expose* it); the registry's
//    mutex guards registration and collection only — never an
//    increment.
//
// Naming scheme (see docs/observability.md): "<layer>.<metric>" with
// an optional "{key=value}" label suffix for families, e.g.
// "net.msgs_sent{type=block}". Metrics carry a Determinism flag:
// kStable values are pure functions of the seed and scenario (what the
// MetricsProbe samples — its JSON must be byte-identical across
// reruns); kWallClock values (ScopedTimer latency histograms) are
// excluded from deterministic collection.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <mutex>

namespace zendoo::obs {

/// Whether a metric's value is a deterministic function of the seeded
/// scenario (kStable) or depends on the host's wall clock / thread
/// scheduling (kWallClock). Deterministic exports sample kStable only.
enum class Determinism : std::uint8_t { kStable, kWallClock };

/// Monotone event count. A drop-in replacement for a raw uint64 field:
/// implicit conversion, ++, +=, assignment all behave identically, so
/// migrating a Stats struct onto the registry changes no call site and
/// no observable value.
class Counter {
 public:
  constexpr Counter() = default;
  constexpr Counter(std::uint64_t v) : v_(v) {}  // NOLINT(google-explicit-constructor)
  constexpr operator std::uint64_t() const { return v_; }  // NOLINT
  constexpr Counter& operator++() {
    ++v_;
    return *this;
  }
  constexpr Counter operator++(int) { return Counter(v_++); }
  constexpr Counter& operator+=(std::uint64_t d) {
    v_ += d;
    return *this;
  }
  constexpr Counter& operator=(std::uint64_t v) {
    v_ = v;
    return *this;
  }
  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-written value (occupancy, height, pool depth). Same wrapper
/// shape as Counter; `set` is the idiomatic spelling at call sites.
class Gauge {
 public:
  constexpr Gauge() = default;
  constexpr operator std::uint64_t() const { return v_; }  // NOLINT
  constexpr void set(std::uint64_t v) { v_ = v; }
  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Fixed log-scale histogram: bucket index = bit_width(value), i.e.
/// bucket b counts values in [2^(b-1), 2^b) (bucket 0 counts zeros).
/// Recording is O(1) with no allocation; count/sum/max ride along so
/// collectors can export scalars without walking buckets.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(uint64) in [0,64]

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }
  static constexpr std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Thread-safe counter for worker-pool paths. Relaxed ordering: the
/// count is a statistic — readers see some monotone prefix, which is
/// exactly the guarantee the concurrency test pins.
class AtomicCounter {
 public:
  void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Thread-safe histogram (same bucketing as Histogram). Each field is
/// independently atomic: a concurrent snapshot may be torn *across*
/// fields (count updated, sum not yet) but never *within* one — no
/// load observes a half-written word.
class AtomicHistogram {
 public:
  static constexpr std::size_t kBuckets = Histogram::kBuckets;

  void record(std::uint64_t v) {
    buckets_[Histogram::bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < v &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// One collected scalar. Histograms flatten to three samples:
/// "<name>.count", "<name>.sum", "<name>.max".
struct Sample {
  std::string name;
  std::uint64_t value = 0;
};

/// Name -> metric map. Two ownership styles:
///  - owned metrics (`counter("x")` etc.) live in the registry at
///    stable addresses — callers keep the returned pointer as the hot
///    handle. This is how copyable owners (Blockchain) share metrics:
///    copies share the registry via shared_ptr, handles stay valid.
///  - exposed metrics (`expose_counter`, `expose_value`) live in the
///    owner's own Stats struct; the registry records a read-only view.
///    `expose_value` computed gauges capture `this` — only for owners
///    that are never copied or moved (NetNode, SimNet).
///
/// Registration and collection take the mutex; increments never do.
/// Non-copyable: a registry is identity, not value.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Owned metrics; re-registering an existing name of the same kind
  /// returns the prior object (throws std::logic_error on a kind
  /// mismatch — one name, one meaning).
  Counter* counter(std::string name, Determinism det = Determinism::kStable);
  Gauge* gauge(std::string name, Determinism det = Determinism::kStable);
  Histogram* histogram(std::string name,
                       Determinism det = Determinism::kStable);
  AtomicCounter* atomic_counter(std::string name,
                                Determinism det = Determinism::kStable);
  AtomicHistogram* atomic_histogram(std::string name,
                                    Determinism det = Determinism::kStable);

  /// Read-only views over metrics owned elsewhere (a Stats struct
  /// member). The pointed-to object must outlive the registry entry.
  void expose_counter(std::string name, const Counter* c,
                      Determinism det = Determinism::kStable);
  /// Computed gauge: `fn` is called at collection time.
  void expose_value(std::string name, std::function<std::uint64_t()> fn,
                    Determinism det = Determinism::kStable);

  /// Canonical family-member name: "family{key=value}".
  static std::string labeled(std::string_view family, std::string_view key,
                             std::string_view value);

  /// All samples, sorted by name. kWallClock metrics are excluded
  /// unless `include_wall_clock` — the deterministic-export contract.
  [[nodiscard]] std::vector<Sample> collect(
      bool include_wall_clock = false) const;

  /// Values only, appended to `out` in collect() order — the
  /// allocation-free fast path for periodic samplers (MetricsProbe
  /// pairs one collect() for the names with collect_values() per tick).
  void collect_values(bool include_wall_clock,
                      std::vector<std::uint64_t>& out) const;

  /// Single sample by exact name (after histogram flattening), or
  /// nullopt when absent.
  [[nodiscard]] std::optional<std::uint64_t> value(
      std::string_view name) const;

 private:
  enum class Kind : std::uint8_t {
    kCounter,
    kGauge,
    kHistogram,
    kAtomicCounter,
    kAtomicHistogram,
    kExternalCounter,
    kComputed,
  };
  struct Entry {
    Kind kind = Kind::kCounter;
    Determinism det = Determinism::kStable;
    const void* ptr = nullptr;                // owned or exposed metric
    std::function<std::uint64_t()> computed;  // kComputed only
  };

  Entry& register_entry(std::string name, Kind kind, Determinism det);
  /// Calls `emit(name, suffix, value)` for every sample in collect()
  /// order; the one flattening routine collect() and collect_values()
  /// share. Caller holds `mu_`.
  template <class Emit>
  void for_each_sample(bool include_wall_clock, Emit&& emit) const;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted => sorted collection
  // Owned metric storage; deques never relocate elements.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::deque<AtomicCounter> atomic_counters_;
  std::deque<AtomicHistogram> atomic_histograms_;
};

}  // namespace zendoo::obs
