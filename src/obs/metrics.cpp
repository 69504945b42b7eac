#include "obs/metrics.hpp"

#include <stdexcept>

namespace zendoo::obs {

Registry::Entry& Registry::register_entry(std::string name, Kind kind,
                                          Determinism det) {
  auto [it, inserted] = entries_.try_emplace(std::move(name));
  if (!inserted && it->second.kind != kind) {
    throw std::logic_error("obs::Registry: name '" + it->first +
                           "' re-registered as a different metric kind");
  }
  if (inserted) {
    it->second.kind = kind;
    it->second.det = det;
  }
  return it->second;
}

Counter* Registry::counter(std::string name, Determinism det) {
  std::lock_guard lock(mu_);
  Entry& e = register_entry(std::move(name), Kind::kCounter, det);
  if (e.ptr == nullptr) e.ptr = &counters_.emplace_back();
  return const_cast<Counter*>(static_cast<const Counter*>(e.ptr));
}

Gauge* Registry::gauge(std::string name, Determinism det) {
  std::lock_guard lock(mu_);
  Entry& e = register_entry(std::move(name), Kind::kGauge, det);
  if (e.ptr == nullptr) e.ptr = &gauges_.emplace_back();
  return const_cast<Gauge*>(static_cast<const Gauge*>(e.ptr));
}

Histogram* Registry::histogram(std::string name, Determinism det) {
  std::lock_guard lock(mu_);
  Entry& e = register_entry(std::move(name), Kind::kHistogram, det);
  if (e.ptr == nullptr) e.ptr = &histograms_.emplace_back();
  return const_cast<Histogram*>(static_cast<const Histogram*>(e.ptr));
}

AtomicCounter* Registry::atomic_counter(std::string name, Determinism det) {
  std::lock_guard lock(mu_);
  Entry& e = register_entry(std::move(name), Kind::kAtomicCounter, det);
  if (e.ptr == nullptr) e.ptr = &atomic_counters_.emplace_back();
  return const_cast<AtomicCounter*>(static_cast<const AtomicCounter*>(e.ptr));
}

AtomicHistogram* Registry::atomic_histogram(std::string name,
                                            Determinism det) {
  std::lock_guard lock(mu_);
  Entry& e = register_entry(std::move(name), Kind::kAtomicHistogram, det);
  if (e.ptr == nullptr) e.ptr = &atomic_histograms_.emplace_back();
  return const_cast<AtomicHistogram*>(
      static_cast<const AtomicHistogram*>(e.ptr));
}

void Registry::expose_counter(std::string name, const Counter* c,
                              Determinism det) {
  std::lock_guard lock(mu_);
  Entry& e = register_entry(std::move(name), Kind::kExternalCounter, det);
  e.ptr = c;
}

void Registry::expose_value(std::string name,
                            std::function<std::uint64_t()> fn,
                            Determinism det) {
  std::lock_guard lock(mu_);
  Entry& e = register_entry(std::move(name), Kind::kComputed, det);
  e.computed = std::move(fn);
}

std::string Registry::labeled(std::string_view family, std::string_view key,
                              std::string_view value) {
  std::string out;
  out.reserve(family.size() + key.size() + value.size() + 3);
  out.append(family).append("{").append(key).append("=").append(value).append(
      "}");
  return out;
}

template <class Emit>
void Registry::for_each_sample(bool include_wall_clock, Emit&& emit) const {
  // entries_ iterates in name order and histogram sub-samples emit in
  // suffix order (.count < .max < .sum), and every flattened name keeps
  // its entry's name as a strict prefix — so the samples come out sorted
  // without a second pass.
  for (const auto& [name, entry] : entries_) {
    if (entry.det == Determinism::kWallClock && !include_wall_clock) continue;
    const auto histogram = [&](const auto* h) {
      emit(name, ".count", h->count());
      emit(name, ".max", h->max());
      emit(name, ".sum", h->sum());
    };
    switch (entry.kind) {
      case Kind::kCounter:
      case Kind::kExternalCounter:
        emit(name, "", static_cast<const Counter*>(entry.ptr)->value());
        break;
      case Kind::kGauge:
        emit(name, "", static_cast<const Gauge*>(entry.ptr)->value());
        break;
      case Kind::kAtomicCounter:
        emit(name, "", static_cast<const AtomicCounter*>(entry.ptr)->value());
        break;
      case Kind::kHistogram:
        histogram(static_cast<const Histogram*>(entry.ptr));
        break;
      case Kind::kAtomicHistogram:
        histogram(static_cast<const AtomicHistogram*>(entry.ptr));
        break;
      case Kind::kComputed:
        emit(name, "", entry.computed());
        break;
    }
  }
}

std::vector<Sample> Registry::collect(bool include_wall_clock) const {
  std::lock_guard lock(mu_);
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for_each_sample(include_wall_clock,
                  [&](const std::string& name, const char* suffix,
                      std::uint64_t v) { out.push_back({name + suffix, v}); });
  return out;
}

void Registry::collect_values(bool include_wall_clock,
                              std::vector<std::uint64_t>& out) const {
  std::lock_guard lock(mu_);
  for_each_sample(include_wall_clock,
                  [&](const std::string&, const char*, std::uint64_t v) {
                    out.push_back(v);
                  });
}

std::optional<std::uint64_t> Registry::value(std::string_view name) const {
  for (const Sample& s : collect(true)) {
    if (s.name == name) return s.value;
  }
  return std::nullopt;
}

}  // namespace zendoo::obs
