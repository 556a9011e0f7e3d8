#include "avsec/obs/metrics.hpp"

#include "avsec/core/bytes.hpp"

namespace avsec::obs {

void MetricsRegistry::inc(std::string_view name, std::uint64_t n) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), n);
  } else {
    it->second += n;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view name, double value) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(std::string(name), core::Accumulator{}).first;
  }
  it->second.add(value);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name, double fallback) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? fallback : it->second;
}

const core::Accumulator* MetricsRegistry::series(
    std::string_view name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, n] : other.counters_) inc(name, n);
  for (const auto& [name, v] : other.gauges_) set_gauge(name, v);
  for (const auto& [name, acc] : other.series_) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      series_.emplace(name, acc);
    } else {
      it->second.merge(acc);
    }
  }
}

std::map<std::string, double> MetricsRegistry::flatten() const {
  std::map<std::string, double> out;
  for (const auto& [name, n] : counters_) {
    out[name] = static_cast<double>(n);
  }
  for (const auto& [name, v] : gauges_) out[name] = v;
  for (const auto& [name, acc] : series_) {
    out[name + ".count"] = static_cast<double>(acc.count());
    out[name + ".mean"] = acc.mean();
    out[name + ".min"] = acc.min();
    out[name + ".max"] = acc.max();
    out[name + ".sum"] = acc.sum();
  }
  return out;
}

std::string MetricsRegistry::text_dump() const {
  std::string out;
  for (const auto& [name, n] : counters_) {
    out += "counter " + name + " " + std::to_string(n) + "\n";
  }
  for (const auto& [name, v] : gauges_) {
    out += "gauge " + name + " " + core::format_double(v) + "\n";
  }
  for (const auto& [name, acc] : series_) {
    out += "series " + name + " count=" + std::to_string(acc.count()) +
           " mean=" + core::format_double(acc.mean()) +
           " min=" + core::format_double(acc.min()) +
           " max=" + core::format_double(acc.max()) +
           " sum=" + core::format_double(acc.sum()) + "\n";
  }
  return out;
}

bool MetricsRegistry::identical(const MetricsRegistry& other) const {
  if (counters_ != other.counters_ || gauges_.size() != other.gauges_.size() ||
      series_.size() != other.series_.size()) {
    return false;
  }
  for (auto ita = gauges_.begin(), itb = other.gauges_.begin();
       ita != gauges_.end(); ++ita, ++itb) {
    if (ita->first != itb->first || ita->second != itb->second) return false;
  }
  for (auto ita = series_.begin(), itb = other.series_.begin();
       ita != series_.end(); ++ita, ++itb) {
    if (ita->first != itb->first || !ita->second.identical(itb->second)) {
      return false;
    }
  }
  return true;
}

}  // namespace avsec::obs
