#pragma once
// UCS-style software profiling (§3).
//
// The paper instruments code with UCX's UCS profiling infrastructure,
// which reads cntvct_el0 (preceded by an isb) around each region. The
// infrastructure itself costs time -- 49.69 ns mean, 1.48 ns sd on the
// paper's machine -- and reported numbers have that mean subtracted.
//
// This profiler reproduces the methodology *inside* the simulation: each
// measured region perturbs the core's timeline by a sampled overhead
// (half charged inside the region at begin, half at end, so the raw span
// contains one full overhead sample) and the recorded duration subtracts
// the configured mean. The residual sampling noise is therefore part of
// our measured component times, exactly as on real hardware.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "cpu/core.hpp"

namespace bb::prof {

/// The code sites a region can be measured at, one per component the
/// paper times (§4.1, §5), grouped by the class that holds them.
enum class Site : std::uint8_t {
  kLlpPost, kLlpPostSteps, kBusyPost,             // llp::Endpoint
  kUctWorkerProgress, kLlpProg,                   // llp::Worker
  kUcpWorkerProgress, kUcpCallback,               // hlp::UcpWorker
  kMpiIsend, kUcpTagSendNb, kMpiWait, kMpichCallback,
  kMpichAfterProgress,                            // hlp::MpiComm
};

/// The region name a site records under. kLlpPostSteps has none: it
/// records each Fig. 4 substep of LLP_post under its own.
constexpr const char* region_name(Site site) {
  constexpr const char* kNames[] = {
      "LLP_post", nullptr, "Busy post", "uct_worker_progress", "LLP_prog",
      "ucp_worker_progress", "UCP callback", "MPI_Isend", "ucp_tag_send_nb",
      "MPI_Wait", "MPICH callback", "MPICH after progress"};
  return kNames[static_cast<int>(site)];
}

/// A profiler's recorded state, detached from the live Core/Simulator
/// that produced it. Counters are per-Profiler (and therefore
/// per-Simulator) -- there is deliberately no process-global registry,
/// so simulations on different threads never share measurement state.
/// `merge` is the aggregation API `bb::exec` uses to fold per-job
/// profiles into one report: merge snapshots in grid order and the
/// aggregate is deterministic at any thread count.
struct ProfileData {
  std::map<std::string, Samples> regions;
  std::map<std::string, std::uint64_t> counters;

  bool empty() const { return regions.empty() && counters.empty(); }

  /// Folds `o` into this profile: region samples append (this first,
  /// then `o`), counters add.
  void merge(const ProfileData& o);

  /// Table of all regions (and counters, when present) -- the same
  /// rendering as Profiler::report().
  std::string report() const;
};

class Profiler {
 public:
  explicit Profiler(cpu::Core& core) : core_(core) {}

  /// Globally enables/disables measurement. Disabled regions cost nothing
  /// and record nothing -- the paper measures one component at a time "to
  /// minimize any effects of artificial slowdowns" (§3); benches likewise
  /// disable the profiler for analyzer-observed runs.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// An open measurement; obtained from begin(), closed by end().
  struct Region {
    bool active = false;
    std::string name;
    TimePs t0;
    TimePs deferred_overhead;  // second half, charged at end()
  };

  Region begin(std::string name);
  /// Closes the region and records the compensated duration.
  void end(Region& r) {
    if (r.active) close(r);
  }

  /// Replaces the set of wrapped sites; wrap({}) measures none, the
  /// default. The paper wraps one component at a time (§3).
  void wrap(std::initializer_list<Site> sites) {
    wrapped_ = 0;
    for (Site s : sites) wrapped_ |= 1u << static_cast<unsigned>(s);
  }
  bool wraps(Site site) const {
    return (wrapped_ >> static_cast<unsigned>(site)) & 1u;
  }
  /// begin() at `site`, under its region name or, for a kLlpPostSteps
  /// substep, under `name`. Unless the site is wrapped, the region is
  /// inactive and costs nothing.
  Region begin(Site site, const char* name = nullptr) {
    if (!wraps(site)) return Region{};
    if (name == nullptr) name = region_name(site);
    BB_ASSERT_MSG(name != nullptr, "a kLlpPostSteps region names its substep");
    return begin(std::string(name));
  }

  /// Records an externally measured duration under `name` (used when a
  /// component is derived by subtraction, mirroring §5's methodology).
  void record_ns(const std::string& name, double ns);

  /// Event counters (fault/recovery accounting and similar): free --
  /// counting does not perturb the simulated timeline, unlike regions.
  void note_count(const std::string& name, std::uint64_t delta = 1) {
    data_.counters[name] += delta;
  }
  std::uint64_t counter(const std::string& name) const {
    auto it = data_.counters.find(name);
    return it == data_.counters.end() ? 0 : it->second;
  }

  bool has(const std::string& name) const;
  const Samples& samples(const std::string& name) const;
  double mean_ns(const std::string& name) const;
  void clear() { data_ = ProfileData{}; }

  /// Copies the recorded state out of the live profiler -- the handoff
  /// point from a job-owned Cluster (or Testbed) to the caller-side
  /// aggregate.
  ProfileData snapshot() const { return data_; }

  /// The mean that gets subtracted from every region (Table 1:
  /// "Measurement update").
  double overhead_mean_ns() const {
    return core_.costs().timer_read.mean_ns;
  }

  /// Table of all recorded regions.
  std::string report() const;

 private:
  void close(Region& r);

  cpu::Core& core_;
  bool enabled_ = true;
  std::uint32_t wrapped_ = 0;
  ProfileData data_;
};

}  // namespace bb::prof
