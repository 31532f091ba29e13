// perfbench: runs one benchmark workload for a given host time and prints
// a JSON report (end-to-end metrics, per-layer metrics when traced, the
// outcome of the correctness checks, and determinism fingerprints).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <x>] [--trace-out <file>]
//
// Untraced (--trace 0): rounds repeat until --seconds of host time have
// passed (at least the workload's sim_rounds). Traced (--trace 1): every round runs twice
// on the same seed, once recording spans and once not, in alternating
// order; the pair must simulate identically, and their host-time ratio is
// the tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

const Workload kWorkloads[] = {
    {"inject_8B", run_inject, 64 * 2000, 64 * 40, 8, true},
    {"pingpong_mix_lossy", run_pingpong, 6000, 150, 3, false},
    {"allreduce_16r", run_allreduce, 120, 12, 9, false},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <x>] [--trace-out <file>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) o.workload = &w;
      }
      if (!o.workload) usage("unknown workload");
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      o.trace = std::atoi(v) != 0;
    } else if (a == "--scale") {
      o.scale = std::atof(v);
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!o.workload) usage("--workload is required");
  if (!(o.scale > 0)) usage("--scale must be positive");
  return o;
}

// --- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* better;
};

void print_metrics(const char* key, const std::vector<Metric>& ms) {
  std::printf(",\"%s\":{", key);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"better\":\"%s\"}",
                i ? "," : "", ms[i].name.c_str(), ms[i].value, ms[i].unit, ms[i].better);
  }
  std::printf("}");
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

/// Everything the sim-clock metrics are computed from: the first
/// `sim_rounds` rounds, pooled.
struct SimSample {
  std::vector<double> op_ns;
  std::vector<std::uint32_t> op_bytes;
  double msgs = 0, op_time_ns = 0, timed_sim_ns = 0, ops = 0;
  Counts delta;
  std::uint64_t frame_pool_fresh = 0;
  std::uint64_t size_seq_hash = 0, op_fingerprint = 0;
  std::vector<std::pair<std::uint32_t, double>> model_ns;

  SimSample(const std::vector<RoundResult>& rounds, int sim_rounds) {
    const std::size_t k = std::min(static_cast<std::size_t>(sim_rounds), rounds.size());
    for (std::size_t i = 0; i < k; ++i) {
      const RoundResult& r = rounds[i];
      op_ns.insert(op_ns.end(), r.op_ns.begin(), r.op_ns.end());
      op_bytes.insert(op_bytes.end(), r.op_bytes.begin(), r.op_bytes.end());
      msgs += r.msgs;
      op_time_ns += r.op_time_ns;
      timed_sim_ns += r.timed_sim_ns;
      ops += static_cast<double>(r.attempted);
      delta += r.delta;
      frame_pool_fresh += r.frame_pool_fresh;
      size_seq_hash = fnv1a(&r.size_seq_hash, sizeof r.size_seq_hash, size_seq_hash);
      const std::uint64_t fp = r.fingerprint();
      op_fingerprint = fnv1a(&fp, sizeof fp, op_fingerprint);
    }
    model_ns = rounds.front().model_ns;
  }

  /// Simulated per-op time at one size: the mean (injection, as the OSU
  /// message-rate test reports it) or the median.
  double sim_ns_at(std::uint32_t bytes, bool mean) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < op_ns.size(); ++i) {
      if (op_bytes[i] == bytes) v.push_back(op_ns[i]);
    }
    if (v.empty()) return 0;
    return mean ? std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size())
                : median(v);
  }
  double model_err_pct(std::uint32_t bytes, double model, bool mean) const {
    const double sim = sim_ns_at(bytes, mean);
    return sim == 0 ? 0 : std::fabs(model - sim) / sim * 100.0;
  }
  double per_op(std::uint64_t count) const { return ratio(static_cast<double>(count), ops); }
};

std::vector<Metric> end_to_end(const Workload& w, const std::vector<RoundResult>& host_rounds,
                               const SimSample& s) {
  std::vector<double> rate, setup;
  for (const RoundResult& r : host_rounds) {
    rate.push_back(ratio(static_cast<double>(r.attempted), r.run_s * r.host_speed));
    setup.push_back(r.setup_s() * r.host_speed);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  double err = 0;
  for (const auto& [bytes, model] : s.model_ns) {
    err = std::max(err, s.model_err_pct(bytes, model, w.model_vs_mean));
  }
  return {
      {"ops_per_host_s", median(rate), "1/s", "higher"},
      {"setup_s", median(setup), "s", "lower"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", "lower"},
      {"sim_msg_rate_mmps", ratio(s.msgs, s.op_time_ns) * 1e3, "Mmsg/s", "higher"},
      {"sim_lat_p50_ns", quantile(s.op_ns, 0.5), "ns", "lower"},
      {"sim_lat_p99_ns", quantile(s.op_ns, 0.99), "ns", "lower"},
      {"model_err_pct", err, "%", "lower"},
  };
}

/// Span-derived samples of the traced rounds.
struct SpanStats {
  struct ByName {
    std::uint64_t count = 0;
    double sim_total_ns = 0, host_total_s = 0, host_self_s = 0;
  };
  ByName by_name[static_cast<std::size_t>(SpanName::kCount)];
  std::vector<double> isend_ns, wait_ns;  // traced rounds < sim_rounds
  std::vector<Tracer::Span> kept;          // first traced round, written out
  std::uint64_t total = 0;

  void add_round(std::vector<Tracer::Span> spans, bool sample) {
    std::vector<double> child_host_s(spans.size(), 0.0);
    for (const Tracer::Span& sp : spans) {
      if (sp.parent >= 0 && host_reported(sp.name)) {
        child_host_s[static_cast<std::size_t>(sp.parent)] +=
            static_cast<double>(sp.host_end_ns - sp.host_begin_ns) * 1e-9;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& sp = spans[i];
      const double sim_ns = static_cast<double>(sp.sim_end_ps - sp.sim_begin_ps) * 1e-3;
      ByName& b = by_name[static_cast<std::size_t>(sp.name)];
      ++b.count;
      b.sim_total_ns += sim_ns;
      if (host_reported(sp.name)) {
        const double host_s = static_cast<double>(sp.host_end_ns - sp.host_begin_ns) * 1e-9;
        b.host_total_s += host_s;
        b.host_self_s += host_s - child_host_s[i];
      }
      if (sample && sp.name == SpanName::kIsend) isend_ns.push_back(sim_ns);
      if (sample && sp.name == SpanName::kWait) wait_ns.push_back(sim_ns);
    }
    total += spans.size();
    if (kept.empty()) kept = std::move(spans);
  }
};

std::vector<Metric> per_layer(const Workload& w, const std::vector<RoundResult>& traced,
                              const std::vector<RoundResult>& untraced, const SimSample& s,
                              const SpanStats& spans) {
  const Counts& d = s.delta;
  std::vector<double> run_s, ns_per_event, build_s, wire_s, warmup_s, traced_rate, plain_rate;
  for (const RoundResult& r : traced) {
    const double h = r.host_speed;
    run_s.push_back(r.run_s * h);
    ns_per_event.push_back(ratio(r.run_s * h * 1e9, static_cast<double>(r.delta.events)));
    build_s.push_back(r.build_s * h);
    wire_s.push_back(r.wire_s * h);
    warmup_s.push_back(r.warmup_s * h);
    traced_rate.push_back(ratio(static_cast<double>(r.attempted), r.run_s * h));
  }
  for (const RoundResult& r : untraced) {
    plain_rate.push_back(ratio(static_cast<double>(r.attempted), r.run_s * r.host_speed));
  }
  const bool coll = w.run_round == run_allreduce;
  const double kop = s.ops / 1000.0;
  std::vector<Metric> m = {
      {"sim.events_per_op", s.per_op(d.events), "count", "lower"},
      {"sim.host_ns_per_event", median(ns_per_event), "ns", "lower"},
      {"sim.run_host_s", median(run_s), "s", "lower"},
      {"sim.frame_pool_fresh", static_cast<double>(s.frame_pool_fresh), "count", "lower"},
      {"sim.event_pool_chunks", static_cast<double>(traced.front().event_pool_chunks), "count",
       "lower"},
      {"cpu.busy_share.r0", ratio(static_cast<double>(d.cpu0_busy_ps) * 1e-3, s.timed_sim_ns),
       "ratio", "higher"},
      {"cpu.busy_ns_per_op.r0", s.per_op(d.cpu0_busy_ps) * 1e-3, "ns", "lower"},
      {"pcie.tlps_per_op", s.per_op(d.tlps), "count", "lower"},
      {"pcie.mmio_per_op", s.per_op(d.mmio), "count", "lower"},
      {"pcie.rc_credit_stalls", static_cast<double>(d.rc_credit_stalls), "count", "lower"},
      {"pcie.mem_writes_per_op", s.per_op(d.mem_writes), "count", "lower"},
      {"nic.dma_reads_per_op", s.per_op(d.dma_reads), "count", "lower"},
      {"nic.cqes_per_op", s.per_op(d.cqes), "count", "lower"},
      {"nic.credit_stalls", static_cast<double>(d.nic_credit_stalls), "count", "lower"},
      {"nic.error_cqes", static_cast<double>(d.error_cqes), "count", "lower"},
      {"net.retransmits_per_kop", ratio(static_cast<double>(d.retransmits), kop), "count",
       "lower"},
      {"net.retry_timer_firings_per_kop", ratio(static_cast<double>(d.retry_firings), kop),
       "count", "lower"},
      {"net.naks_per_kop", ratio(static_cast<double>(d.naks_sent), kop), "count", "lower"},
      {"net.useful_data_ratio",
       ratio(static_cast<double>(d.data_pkts_sent - d.retransmits),
             static_cast<double>(d.data_pkts_sent)),
       "ratio", "higher"},
      {"net.packets_per_op", s.per_op(d.pkts_sent), "count", "lower"},
      {"net.acks_per_data_packet",
       ratio(static_cast<double>(d.acks_sent), static_cast<double>(d.data_pkts_sent)), "ratio",
       "lower"},
      {"llp.busy_post_ratio",
       ratio(static_cast<double>(d.busy_posts), static_cast<double>(d.posted + d.busy_posts)),
       "ratio", "lower"},
      {"llp.cqes_polled_per_op", s.per_op(d.cqes_polled), "count", "lower"},
      {"llp.flushed_completions", static_cast<double>(d.flushed), "count", "lower"},
      {"hlp.isend_sim_ns.p50", quantile(spans.isend_ns, 0.5), "ns", "lower"},
      {"hlp.isend_sim_ns.p99", quantile(spans.isend_ns, 0.99), "ns", "lower"},
      {"hlp.wait_sim_ns.p50", quantile(spans.wait_ns, 0.5), "ns", "lower"},
      {"hlp.wait_sim_ns.p99", quantile(spans.wait_ns, 0.99), "ns", "lower"},
      {"hlp.rndv_share",
       ratio(static_cast<double>(d.rndv_sends), static_cast<double>(d.isends)), "ratio",
       "lower"},
  };
  // Collective metrics are zero on the point-to-point workloads.
  const std::pair<const char*, std::uint32_t> coll_sizes[] = {
      {"8B", 8}, {"256B", 256}, {"4KiB", 4096}};
  for (const auto& [label, bytes] : coll_sizes) {
    m.push_back({std::string("coll.allreduce_sim_ns.") + label,
                 coll ? s.sim_ns_at(bytes, false) : 0, "ns", "lower"});
  }
  for (const auto& [label, bytes] : coll_sizes) {
    double err = 0;
    for (const auto& [b, model] : s.model_ns) {
      if (coll && b == bytes) err = s.model_err_pct(b, model, false);
    }
    m.push_back({std::string("coll.model_err_pct.") + label, err, "%", "lower"});
  }
  m.push_back({"coll.isends_per_op", coll ? s.per_op(d.isends) : 0, "count", "lower"});
  m.push_back({"coll.waits_per_op", coll ? s.per_op(d.waits) : 0, "count", "lower"});
  m.push_back({"scenario.build_host_s", median(build_s), "s", "lower"});
  m.push_back({"scenario.wire_host_s", median(wire_s), "s", "lower"});
  m.push_back({"scenario.warmup_host_s", median(warmup_s), "s", "lower"});
  m.push_back({"trace.overhead_host_pct",
               (ratio(median(plain_rate), median(traced_rate)) - 1.0) * 100.0, "%", "lower"});
  return m;
}

void write_trace(const std::string& path, const Options& o, const SpanStats& st) {
  constexpr std::size_t kMaxWritten = 20000;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::size_t n = std::min(kMaxWritten, st.kept.size());
  f << "{\"workload\":\"" << o.workload->name << "\",\"seed\":" << o.seed
    << ",\"spans_recorded\":" << st.total << ",\"spans_written\":" << n << ",\"by_name\":{";
  for (std::size_t i = 0; i < std::size(kSpanNames); ++i) {
    const SpanStats::ByName& b = st.by_name[i];
    f << (i ? "," : "") << "\"" << kSpanNames[i] << "\":{\"count\":" << b.count
      << ",\"sim_total_ns\":" << b.sim_total_ns;
    if (host_reported(static_cast<SpanName>(i))) {
      f << ",\"host_total_s\":" << b.host_total_s << ",\"host_self_s\":" << b.host_self_s;
    }
    f << "}";
  }
  f << "},\"fields\":[\"name\",\"rank\",\"parent\",\"op\",\"sim_begin_ps\",\"sim_end_ps\","
       "\"host_begin_ns\",\"host_end_ns\"],\"spans\":[";
  for (std::size_t i = 0; i < n; ++i) {
    const Tracer::Span& s = st.kept[i];
    f << (i ? "," : "") << "[\"" << kSpanNames[static_cast<std::size_t>(s.name)] << "\","
      << s.rank << "," << s.parent << "," << s.op << "," << s.sim_begin_ps << ","
      << s.sim_end_ps << "," << s.host_begin_ns << "," << s.host_end_ns << "]";
  }
  f << "]}\n";
}

int run(const Options& o) {
  const Workload& w = *o.workload;
  const auto scaled = [&](std::uint64_t n) {
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(static_cast<double>(n) * o.scale));
  };
  const std::int64_t t0 = host_now_ns();
  std::vector<RoundResult> untraced, traced;
  SpanStats spans;
  Tracer tracer;
  double speed_before = host_speed();
  for (int i = 0;; ++i) {
    if (i >= w.sim_rounds && host_s_since(t0) >= o.seconds) break;
    RoundSpec spec;
    spec.seed = i == 0 ? o.seed : bb::derive_seed(o.seed, static_cast<std::uint64_t>(i));
    spec.ops = scaled(w.ops_per_round);
    spec.warmup_ops = scaled(w.warmup_ops);
    if (!o.trace) {
      untraced.push_back(w.run_round(spec));
    } else {
      // Alternate which copy runs first so cache warmth favours neither.
      RoundSpec traced_spec = spec;
      traced_spec.tracer = &tracer;
      if (i % 2 == 0) untraced.push_back(w.run_round(spec));
      traced.push_back(w.run_round(traced_spec));
      if (i % 2 == 1) untraced.push_back(w.run_round(spec));
      spans.add_round(tracer.take(), i < w.sim_rounds);
      RoundResult& t = traced.back();
      const RoundResult& u = untraced.back();
      if (t.fingerprint() != u.fingerprint() || !(t.delta == u.delta)) {
        t.fail("traced round " + std::to_string(i) + " simulated differently from untraced");
      }
    }
    const double speed_after = host_speed();
    const double speed = 0.5 * (speed_before + speed_after);
    untraced.back().host_speed = speed;
    if (o.trace) traced.back().host_speed = speed;
    speed_before = speed_after;
  }

  // Sim-clock metrics come from the traced rounds when there are any, so
  // comparing a traced with an untraced run checks that spans only read
  // clocks. Host-clock end-to-end metrics always come from untraced rounds.
  const std::vector<RoundResult>& results = o.trace ? traced : untraced;
  const SimSample sample(results, w.sim_rounds);
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const RoundResult& r : results) {
    attempted += r.attempted;
    failed += std::min(r.failed, r.attempted);
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"rounds\":%zu,\"sim_rounds\":%d",
              w.name, static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              results.size(), std::min<int>(w.sim_rounds, static_cast<int>(results.size())));
  std::printf(",\"host_s\":%.6f,\"attempted\":%llu,\"failed\":%llu,\"error_rate\":%.17g",
              host_s_since(t0), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf(",\"correct\":%s,\"errors\":[", failed == 0 && errors.empty() ? "true" : "false");
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::printf("%s\"%s\"", i ? "," : "", json_escape(errors[i]).c_str());
  }
  std::printf("]");
  std::printf(",\"determinism\":{\"size_seq_hash\":\"%016llx\",\"op_fingerprint\":\"%016llx\","
              "\"counts_fingerprint\":\"%016llx\"}",
              static_cast<unsigned long long>(sample.size_seq_hash),
              static_cast<unsigned long long>(sample.op_fingerprint),
              static_cast<unsigned long long>(fnv1a(&sample.delta, sizeof sample.delta)));
  std::vector<double> speed, raw_rate, raw_setup;
  for (const RoundResult& r : untraced) {
    speed.push_back(r.host_speed);
    raw_rate.push_back(ratio(static_cast<double>(r.attempted), r.run_s));
    raw_setup.push_back(r.setup_s());
  }
  std::printf(",\"host\":{\"speed_median\":%.6g,\"speed_min\":%.6g,\"speed_max\":%.6g,"
              "\"ops_per_host_s_unscaled\":%.17g,\"setup_s_unscaled\":%.17g}",
              median(speed), *std::min_element(speed.begin(), speed.end()),
              *std::max_element(speed.begin(), speed.end()), median(raw_rate),
              median(raw_setup));
  std::printf(",\"host_rounds\":[");
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const RoundResult& r = untraced[i];
    std::printf("%s[%.6g,%.6g]", i ? "," : "", ratio(static_cast<double>(r.attempted), r.run_s),
                r.host_speed);
  }
  std::printf("]");
  std::printf(",\"model_by_size\":[");
  for (std::size_t i = 0; i < sample.model_ns.size(); ++i) {
    const auto [bytes, model] = sample.model_ns[i];
    std::printf("%s{\"bytes\":%u,\"sim_ns\":%.17g,\"model_ns\":%.17g}", i ? "," : "", bytes,
                sample.sim_ns_at(bytes, w.model_vs_mean), model);
  }
  std::printf("]");
  print_metrics("end_to_end", end_to_end(w, untraced, sample));
  if (o.trace) {
    print_metrics("per_layer", per_layer(w, traced, untraced, sample, spans));
    if (!o.trace_out.empty()) write_trace(o.trace_out, o, spans);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(perfbench::parse(argc, argv)); }
