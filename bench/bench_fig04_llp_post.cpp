// Reproduces Fig. 4: the percentage breakdown of time in an LLP_post
// (MD setup / barrier for MD / barrier for DBC / PIO copy / other).

#include <cstdio>

#include "common/table.hpp"
#include "core/component_table.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;

int main() {
  bbench::header("bench_fig04_llp_post -- breakdown of an LLP_post",
                 "Fig. 4 (§4.1)");

  // Measure the substeps with the profiler, as §4.1 does.
  scenario::Testbed tb(scenario::presets::thunderx2_cx4());
  tb.node(0).profiler.wrap({prof::Site::kLlpPostSteps, prof::Site::kBusyPost});
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](scenario::Testbed::Node& n,
                    llp::Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 500; ++i) {
      while (co_await e.put_short(8) != llp::Status::kOk) {
        co_await n.worker.progress();
      }
      if (i % 8 == 0) co_await n.worker.progress();
    }
    while (e.outstanding() > 0) co_await n.worker.progress();
  }(tb.node(0), ep));
  tb.sim().run();

  auto& prof = tb.node(0).profiler;
  const std::vector<BarSegment> measured = {
      {"MD setup", prof.mean_ns("MD setup")},
      {"Barrier for MD", prof.mean_ns("Barrier for MD")},
      {"Barrier for DBC", prof.mean_ns("Barrier for DBC")},
      {"PIO copy", prof.mean_ns("PIO copy")},
      {"Other", prof.mean_ns("Other")},
  };
  std::printf("%s\n", render_stacked_bar("measured (simulator, profiled)",
                                         measured)
                          .c_str());

  const auto paper = core::ComponentTable::paper();
  const std::vector<BarSegment> published = {
      {"MD setup", paper.md_setup},
      {"Barrier for MD", paper.barrier_md},
      {"Barrier for DBC", paper.barrier_dbc},
      {"PIO copy", paper.pio_copy},
      {"Other", paper.llp_post_misc},
  };
  std::printf("%s\n", render_stacked_bar("paper (Fig. 4)", published).c_str());

  // Validate the percentage shares against the figure.
  double total = 0;
  for (const auto& s : measured) total += s.value;
  auto share = [&](int i) { return measured[static_cast<std::size_t>(i)].value / total * 100.0; };

  bbench::Validator v;
  v.within("MD setup %", share(0), 15.84, 0.06);
  v.within("Barrier for MD %", share(1), 9.88, 0.06);
  v.within("Barrier for DBC %", share(2), 12.01, 0.06);
  v.within("PIO copy %", share(3), 53.79, 0.06);
  v.within("Other %", share(4), 8.49, 0.08);
  v.is_true("PIO copy dominates (>50%)", share(3) > 50.0);
  return v.finish();
}
