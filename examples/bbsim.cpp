// bbsim: run any of the reproduction benchmarks on any machine preset
// from the command line.
//
//   bbsim put_bw   [preset] [count]    # UCX injection-rate test
//   bbsim am_lat   [preset] [count]    # UCX ping-pong latency test
//   bbsim osu_mr   [preset] [windows]  # OSU message rate (MPI)
//   bbsim osu_lat  [preset] [count]    # OSU pt2pt latency (MPI)
//   bbsim coll     [preset] [ranks] [bytes] [collective]
//                                      # OSU collective latency (bb::coll)
//   bbsim sweep    <put_bw|am_lat|osu_mr|osu_lat> [count]
//                                      # one benchmark across ALL presets,
//                                      # sharded over the bb::exec pool
//   bbsim list                         # available presets
//
// Every subcommand accepts `--jobs N` (default: hardware concurrency;
// BB_JOBS overrides). The thread count never changes any printed number
// -- bb::exec sweeps are bit-identical at every value.
//
// Examples:
//   bbsim am_lat genz-switch 2000
//   bbsim coll genz-switch 8 1024 allreduce
//   bbsim sweep am_lat --jobs 4

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "benchlib/am_lat.hpp"
#include "benchlib/osu.hpp"
#include "benchlib/osu_coll.hpp"
#include "benchlib/put_bw.hpp"
#include "core/models.hpp"
#include "exec/sweep.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/cluster.hpp"
#include "scenario/testbed.hpp"

using namespace bb;

namespace {

/// Every machine bbsim runs, by scenario name: the testbed alone, or with
/// one overlay, whose label names it.
std::map<std::string, scenario::SystemConfig> presets() {
  namespace ov = scenario::overlays;
  const scenario::SystemConfig base = scenario::presets::thunderx2_cx4();
  std::map<std::string, scenario::SystemConfig> reg{{base.name, base}};
  for (const ov::Overlay& o :
       {ov::deterministic(), ov::integrated_nic(0.5), ov::fast_device_memory(),
        ov::genz_switch(), ov::pam4_fec_wire(), ov::tofu_d_like(),
        ov::doorbell_dma(), ov::unsignaled_completions()}) {
    scenario::SystemConfig cfg = base.with(o);
    reg.emplace(cfg.name, std::move(cfg));
  }
  return reg;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <put_bw|am_lat|osu_mr|osu_lat|coll|sweep|list> "
               "[preset] [count] [--jobs N]\n"
               "       %s coll [preset] [ranks] [bytes] "
               "[barrier|bcast|allgather|allreduce]\n"
               "       %s sweep <put_bw|am_lat|osu_mr|osu_lat> [count]\n",
               argv0, argv0, argv0);
  return 2;
}

/// Parses a whole argument as a decimal number no larger than `max`:
/// digits only, so a sign, spaces, trailing text or overflow is an error
/// rather than a wrapped or default value.
std::optional<std::uint64_t> parse_count(
    const char* arg,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* end = arg + std::strlen(arg);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(arg, end, v);
  if (ec != std::errc{} || ptr != end || v > max) return std::nullopt;
  return v;
}

/// One row of `bbsim sweep`: observed + modelled value on one preset.
struct SweepRow {
  double observed;
  double modelled;
};

SweepRow run_metric(const std::string& metric,
                    const scenario::SystemConfig& cfg, std::uint64_t count) {
  const auto table = core::ComponentTable::from_config(cfg);
  scenario::Testbed tb(cfg);
  if (metric == "put_bw") {
    bench::PutBwBenchmark b(tb, {.messages = count ? count : 10000,
                                 .warmup = (count ? count : 10000) / 10});
    return {b.run().nic_deltas.summarize().mean,
            core::InjectionModel(table).llp_injection_ns()};
  }
  if (metric == "am_lat") {
    bench::AmLatBenchmark b(tb, {.iterations = count ? count : 2000,
                                 .warmup = (count ? count : 2000) / 10});
    return {b.run().adjusted_mean_ns,
            core::LatencyModel(table).llp_latency_ns()};
  }
  if (metric == "osu_mr") {
    bench::OsuMessageRate b(tb, {.windows = count ? count : 300,
                                 .warmup_windows = (count ? count : 300) / 10});
    return {b.run().cpu_per_msg_ns,
            core::InjectionModel(table).overall_injection_ns()};
  }
  bench::OsuLatency b(tb, {.iterations = count ? count : 2000,
                           .warmup = (count ? count : 2000) / 10});
  return {b.run().adjusted_mean_ns, core::LatencyModel(table).e2e_latency_ns()};
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the shared --jobs flag so positional parsing stays simple.
  exec::Options opts;
  opts.jobs = exec::default_jobs();
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opts.jobs = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      opts.jobs = std::atoi(argv[i] + 7);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (opts.jobs <= 0) opts.jobs = exec::default_jobs();
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  const auto reg = presets();

  if (cmd == "sweep") {
    const std::string metric = argc > 2 ? argv[2] : "am_lat";
    if (metric != "put_bw" && metric != "am_lat" && metric != "osu_mr" &&
        metric != "osu_lat") {
      return usage(argv[0]);
    }
    const auto n = argc > 3 ? parse_count(argv[3]) : std::uint64_t{0};
    if (!n) return usage(argv[0]);
    std::vector<std::string> names;
    for (const auto& [name, _] : reg) names.push_back(name);
    const auto res = exec::run_sweep(
        exec::sweep(names),
        [&](const std::string& name, exec::Job&) {
          return run_metric(metric, reg.at(name), *n);
        },
        opts);
    std::fprintf(stderr, "[exec] %s\n", res.summary().c_str());
    std::printf("%s across %zu presets\n", metric.c_str(), names.size());
    const char* unit = metric == "put_bw" || metric == "osu_mr"
                           ? "ns/msg"
                           : "latency ns";
    std::printf("%-24s %14s %14s\n", "preset", unit, "model");
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::printf("%-24s %14.2f %14.2f\n", names[i].c_str(),
                  res.values[i].observed, res.values[i].modelled);
    }
    return 0;
  }

  if (cmd == "list") {
    for (const auto& [name, _] : reg) std::printf("%s\n", name.c_str());
    return 0;
  }

  const std::string preset = argc > 2 ? argv[2] : "thunderx2-cx4";
  const auto it = reg.find(preset);
  if (it == reg.end()) {
    std::fprintf(stderr, "unknown preset '%s' (try: %s list)\n",
                 preset.c_str(), argv[0]);
    return 2;
  }
  const auto& cfg = it->second;
  const auto parsed_count = argc > 3 ? parse_count(argv[3]) : std::uint64_t{0};
  if (!parsed_count) return usage(argv[0]);
  const std::uint64_t count = *parsed_count;

  const auto table = core::ComponentTable::from_config(cfg);
  if (cmd == "put_bw") {
    scenario::Testbed tb(cfg);
    bench::PutBwBenchmark b(tb, {.messages = count ? count : 10000,
                                 .warmup = (count ? count : 10000) / 10});
    const auto res = b.run();
    const auto s = res.nic_deltas.summarize();
    std::printf("put_bw on %s: %llu msgs\n", cfg.name.c_str(),
                static_cast<unsigned long long>(res.messages));
    std::printf("  observed injection overhead: %s\n", s.str().c_str());
    std::printf("  modelled (Eq. 1):            %.2f ns\n",
                core::InjectionModel(table).llp_injection_ns());
    std::printf("  busy posts: %llu\n",
                static_cast<unsigned long long>(res.busy_posts));
    return 0;
  }
  if (cmd == "am_lat") {
    scenario::Testbed tb(cfg);
    bench::AmLatBenchmark b(tb, {.iterations = count ? count : 2000,
                                 .warmup = (count ? count : 2000) / 10});
    const auto res = b.run();
    std::printf("am_lat on %s: %llu iterations\n", cfg.name.c_str(),
                static_cast<unsigned long long>(res.iterations));
    std::printf("  observed latency (adjusted): %.2f ns\n",
                res.adjusted_mean_ns);
    std::printf("  modelled LLP latency:        %.2f ns\n",
                core::LatencyModel(table).llp_latency_ns());
    return 0;
  }
  if (cmd == "osu_mr") {
    scenario::Testbed tb(cfg);
    bench::OsuMessageRate b(tb, {.windows = count ? count : 300,
                                 .warmup_windows = (count ? count : 300) / 10});
    const auto res = b.run();
    std::printf("osu_mr on %s: %llu msgs\n", cfg.name.c_str(),
                static_cast<unsigned long long>(res.messages));
    std::printf("  message rate: %.2f M msg/s (%.2f ns/msg)\n",
                res.message_rate() / 1e6, res.cpu_per_msg_ns);
    std::printf("  modelled (Eq. 2): %.2f ns/msg\n",
                core::InjectionModel(table).overall_injection_ns());
    return 0;
  }
  if (cmd == "osu_lat") {
    scenario::Testbed tb(cfg);
    bench::OsuLatency b(tb, {.iterations = count ? count : 2000,
                             .warmup = (count ? count : 2000) / 10});
    const auto res = b.run();
    std::printf("osu_lat on %s: %llu iterations\n", cfg.name.c_str(),
                static_cast<unsigned long long>(res.iterations));
    std::printf("  observed latency (adjusted): %.2f ns\n",
                res.adjusted_mean_ns);
    std::printf("  modelled e2e latency:        %.2f ns\n",
                core::LatencyModel(table).e2e_latency_ns());
    return 0;
  }
  if (cmd == "coll") {
    if (count > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      return usage(argv[0]);
    }
    const int ranks = count ? static_cast<int>(count) : 8;
    constexpr std::uint64_t kMaxBytes =
        std::numeric_limits<std::uint32_t>::max();
    const auto parsed_bytes =
        argc > 4 ? parse_count(argv[4], kMaxBytes) : std::uint64_t{1024};
    if (!parsed_bytes) return usage(argv[0]);
    const auto bytes = static_cast<std::uint32_t>(*parsed_bytes);
    const std::string which = argc > 5 ? argv[5] : "allreduce";
    bench::OsuColl::Kind kind;
    if (which == "barrier") {
      kind = bench::OsuColl::Kind::kBarrier;
    } else if (which == "bcast") {
      kind = bench::OsuColl::Kind::kBcast;
    } else if (which == "allgather") {
      kind = bench::OsuColl::Kind::kAllgather;
    } else if (which == "allreduce") {
      kind = bench::OsuColl::Kind::kAllreduce;
    } else {
      return usage(argv[0]);
    }
    if (ranks < 2 || bytes < 8 || bytes % 8 != 0) {
      std::fprintf(stderr, "coll needs ranks >= 2 and bytes a multiple of 8\n");
      return 2;
    }
    scenario::Cluster cl(cfg, ranks);
    coll::World world(cl);
    bench::OsuColl b(world, kind, {.iterations = 40, .warmup = 10,
                                   .bytes = bytes});
    const double sim_ns = b.run().mean_ns();
    const model::CollModel m(cfg);
    double model_ns = 0;
    switch (kind) {
      case bench::OsuColl::Kind::kBarrier: model_ns = m.barrier_ns(ranks); break;
      case bench::OsuColl::Kind::kBcast: model_ns = m.bcast_ns(ranks, bytes); break;
      case bench::OsuColl::Kind::kAllgather:
        model_ns = m.allgather_ns(ranks, bytes);
        break;
      case bench::OsuColl::Kind::kAllreduce:
        model_ns = m.allreduce_ns(ranks, bytes);
        break;
    }
    std::printf("%s on %s: %d ranks, %u bytes\n", which.c_str(),
                cfg.name.c_str(), ranks, bytes);
    std::printf("  simulated latency: %.2f ns\n", sim_ns);
    std::printf("  alpha-beta model:  %.2f ns (%+.1f%%)\n", model_ns,
                (model_ns - sim_ns) / sim_ns * 100.0);
    return 0;
  }
  return usage(argv[0]);
}
