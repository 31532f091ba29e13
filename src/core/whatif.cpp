#include "core/whatif.hpp"

#include <cstdio>

namespace bb::core {

std::string WhatIfPanel::render() const {
  std::string out = title + "  (base " + TextTable::num(base_total_ns) +
                    " ns; cell = % speedup)\n";
  std::vector<std::string> header = {"Component", "ns"};
  if (!curves.empty()) {
    for (double r : curves[0].reductions) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "-%.0f%%", r * 100.0);
      header.push_back(buf);
    }
  }
  TextTable table(header);
  for (const auto& c : curves) {
    std::vector<std::string> row = {c.component, TextTable::num(c.component_ns)};
    for (double s : c.speedups) row.push_back(TextTable::pct(s));
    table.add_row(std::move(row));
  }
  return out + table.render();
}

std::string WhatIfPanel::to_csv() const {
  std::string out = "component,component_ns";
  if (!curves.empty()) {
    for (double r : curves[0].reductions) {
      out += ',';
      out += TextTable::num(r, 2);
    }
  }
  out += "\n";
  for (const auto& c : curves) {
    out += c.component + "," + TextTable::num(c.component_ns);
    for (double s : c.speedups) {
      out += ',';
      out += TextTable::num(s * 100.0, 3);
    }
    out += "\n";
  }
  return out;
}

WhatIf::WhatIf(ComponentTable t) : t_(t) {
  inj_base_ = InjectionModel(t_).overall_injection_ns();
  lat_base_ = LatencyModel(t_).e2e_latency_ns();
}

const std::vector<double>& WhatIf::standard_grid() {
  static const std::vector<double> grid = {0.1, 0.3, 0.5, 0.7, 0.9};
  return grid;
}

namespace {
WhatIfCurve make_curve(const std::string& name, double ns, double base) {
  WhatIfCurve c;
  c.component = name;
  c.component_ns = ns;
  c.reductions = WhatIf::standard_grid();
  for (double r : c.reductions) {
    c.speedups.push_back(WhatIf::speedup(ns, r, base));
  }
  return c;
}
}  // namespace

WhatIfPanel WhatIf::injection_cpu() const {
  WhatIfPanel p;
  p.title = "Fig 17a: injection speedup vs CPU-component reduction";
  p.base_total_ns = inj_base_;
  const double hlp = t_.hlp_post() + t_.hlp_tx_prog;
  const double llp = t_.llp_post() + t_.llp_tx_prog();
  p.curves = {
      make_curve("HLP", hlp, inj_base_),
      make_curve("LLP", llp, inj_base_),
      make_curve("LLP_post", t_.llp_post(), inj_base_),
      make_curve("PIO", t_.pio_copy, inj_base_),
      make_curve("HLP_tx_prog", t_.hlp_tx_prog, inj_base_),
      make_curve("HLP_post", t_.hlp_post(), inj_base_),
      make_curve("LLP_tx_prog", t_.llp_tx_prog(), inj_base_),
  };
  return p;
}

WhatIfPanel WhatIf::latency_cpu() const {
  WhatIfPanel p;
  p.title = "Fig 17b: latency speedup vs CPU-component reduction";
  p.base_total_ns = lat_base_;
  const double hlp = t_.hlp_post() + t_.hlp_rx_prog();
  const double llp = t_.llp_post() + t_.llp_prog;
  p.curves = {
      make_curve("HLP", hlp, lat_base_),
      make_curve("LLP", llp, lat_base_),
      make_curve("HLP_rx_prog", t_.hlp_rx_prog(), lat_base_),
      make_curve("LLP_post", t_.llp_post(), lat_base_),
      make_curve("PIO", t_.pio_copy, lat_base_),
      make_curve("HLP_post", t_.hlp_post(), lat_base_),
      make_curve("LLP_prog", t_.llp_prog, lat_base_),
  };
  return p;
}

WhatIfPanel WhatIf::latency_io() const {
  WhatIfPanel p;
  p.title = "Fig 17c: latency speedup vs I/O-component reduction";
  p.base_total_ns = lat_base_;
  const double io_total = 2.0 * t_.pcie + t_.rc_to_mem_8b;
  p.curves = {
      make_curve("Integrated NIC", io_total, lat_base_),
      make_curve("PCIe", 2.0 * t_.pcie, lat_base_),
      make_curve("RC-to-MEM", t_.rc_to_mem_8b, lat_base_),
  };
  return p;
}

WhatIfPanel WhatIf::latency_network() const {
  WhatIfPanel p;
  p.title = "Fig 17d: latency speedup vs network-component reduction";
  p.base_total_ns = lat_base_;
  p.curves = {
      make_curve("Wire", t_.wire, lat_base_),
      make_curve("Switch", t_.switch_lat, lat_base_),
  };
  return p;
}

double WhatIf::pio_injection_speedup(double target_ns) const {
  const double reduction = 1.0 - target_ns / t_.pio_copy;
  return speedup(t_.pio_copy, reduction, inj_base_);
}

double WhatIf::pio_latency_speedup(double target_ns) const {
  const double reduction = 1.0 - target_ns / t_.pio_copy;
  return speedup(t_.pio_copy, reduction, lat_base_);
}

double WhatIf::hlp_injection_speedup(double reduction) const {
  return speedup(t_.hlp_post() + t_.hlp_tx_prog, reduction, inj_base_);
}

double WhatIf::llp_injection_speedup(double reduction) const {
  return speedup(t_.llp_post() + t_.llp_tx_prog(), reduction, inj_base_);
}

double WhatIf::integrated_nic_latency_speedup(double reduction) const {
  return speedup(2.0 * t_.pcie + t_.rc_to_mem_8b, reduction, lat_base_);
}

double WhatIf::switch_latency_speedup(double target_ns) const {
  const double reduction = 1.0 - target_ns / t_.switch_lat;
  return speedup(t_.switch_lat, reduction, lat_base_);
}

}  // namespace bb::core
