#include "prof/profiler.hpp"

namespace bb::prof {

void ProfileData::merge(const ProfileData& o) {
  for (const auto& [name, samples] : o.regions) {
    regions[name].merge(samples);
  }
  for (const auto& [name, v] : o.counters) {
    counters[name] += v;
  }
}

std::string ProfileData::report() const {
  TextTable t({"Region", "Count", "Mean (ns)", "SD", "Min", "Max"});
  for (const auto& [name, samples] : regions) {
    const Summary s = samples.summarize();
    t.add_row({name, std::to_string(s.count), TextTable::num(s.mean),
               TextTable::num(s.stddev), TextTable::num(s.min),
               TextTable::num(s.max)});
  }
  std::string out = t.render();
  if (!counters.empty()) {
    TextTable c({"Counter", "Value"});
    for (const auto& [name, v] : counters) {
      c.add_row({name, std::to_string(v)});
    }
    out += '\n';
    out += c.render();
  }
  return out;
}

Profiler::Region Profiler::begin(std::string name) {
  Region r;
  if (!enabled_) return r;
  r.active = true;
  r.name = std::move(name);
  r.t0 = core_.virtual_now();
  // One overhead sample per region, half charged at each edge; the raw
  // span t1 - t0 then contains exactly one sampled overhead.
  // draw() wakes a loop parked on the core before the draw, so its
  // replayed passes keep their place in the stream.
  const TimePs overhead = core_.draw(core_.costs().timer_read);
  const TimePs half = overhead / 2;
  r.deferred_overhead = overhead - half;
  core_.consume(half);
  return r;
}

void Profiler::close(Region& r) {
  r.active = false;
  core_.consume(r.deferred_overhead);
  const TimePs raw = core_.virtual_now() - r.t0;
  // §3: "we report software measurements after removing this overhead."
  const double corrected = raw.to_ns() - overhead_mean_ns();
  data_.regions[r.name].add_ns(corrected);
}

void Profiler::record_ns(const std::string& name, double ns) {
  data_.regions[name].add_ns(ns);
}

bool Profiler::has(const std::string& name) const {
  return data_.regions.count(name) != 0;
}

const Samples& Profiler::samples(const std::string& name) const {
  auto it = data_.regions.find(name);
  BB_ASSERT_MSG(it != data_.regions.end(), "no samples for region");
  return it->second;
}

double Profiler::mean_ns(const std::string& name) const {
  return samples(name).summarize().mean;
}

std::string Profiler::report() const { return data_.report(); }

}  // namespace bb::prof
