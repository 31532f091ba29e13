#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t Counts::*kFields[] = {
    &Counts::events,         &Counts::tlps,          &Counts::mmio,
    &Counts::rc_credit_stalls, &Counts::mem_writes,  &Counts::nic_msgs,
    &Counts::dma_reads,      &Counts::cqes,          &Counts::nic_credit_stalls,
    &Counts::error_cqes,     &Counts::pkts_sent,     &Counts::data_pkts_sent,
    &Counts::pkts_delivered, &Counts::pkts_dropped,  &Counts::pkts_corrupted,
    &Counts::pkts_duplicated, &Counts::retransmits,  &Counts::acks_sent,
    &Counts::naks_sent,      &Counts::retry_firings, &Counts::qp_errors,
    &Counts::cqes_polled,    &Counts::flushed,       &Counts::posted,
    &Counts::busy_posts,     &Counts::isends,        &Counts::waits,
    &Counts::rndv_sends,     &Counts::cpu0_busy_ps,
};

}  // namespace

void Counts::add_node(bb::scenario::Testbed::Node& n) {
  tlps += n.link.tlps_delivered();
  mmio += n.rc.mmio_issued();
  rc_credit_stalls += n.rc.credit_stalls();
  mem_writes += n.rc.mem_writes_committed();
  nic_msgs += n.nic.messages_injected();
  dma_reads += n.nic.dma_reads_issued();
  cqes += n.nic.cqes_written();
  nic_credit_stalls += n.nic.credit_stalls();
  error_cqes += n.nic.error_cqes();
  cqes_polled += n.worker.tx_cqes_polled() + n.worker.rx_completions();
  flushed += n.worker.flushed_completions();
}

void Counts::set_net(const bb::net::TransportStats& s) {
  pkts_sent = s.packets_sent;
  data_pkts_sent = s.data_packets_sent;
  pkts_delivered = s.packets_delivered;
  pkts_dropped = s.packets_dropped;
  pkts_corrupted = s.packets_corrupted;
  pkts_duplicated = s.packets_duplicated;
  retransmits = s.retransmits;
  acks_sent = s.acks_sent;
  naks_sent = s.naks_sent;
  retry_firings = s.retry_timer_firings;
  qp_errors = s.qp_errors;
}

Counts snapshot(bb::scenario::Testbed& tb,
                std::initializer_list<bb::scenario::MpiStack*> stacks) {
  Counts c;
  c.events = tb.sim().events_processed();
  c.add_node(tb.node(0));
  c.add_node(tb.node(1));
  c.set_net(tb.net_stats());
  c.cpu0_busy_ps = static_cast<std::uint64_t>(tb.node(0).core.busy_time().ps());
  for (bb::scenario::MpiStack* st : stacks) {
    c.posted += st->endpoint().posted();
    c.busy_posts += st->endpoint().busy_posts();
    c.isends += st->mpi().isends();
    c.waits += st->mpi().waits();
    c.rndv_sends += st->ucp().rndv_sends();
  }
  return c;
}

Counts Counts::operator-(const Counts& o) const {
  Counts d = *this;
  for (auto f : kFields) d.*f -= o.*f;
  return d;
}

Counts& Counts::operator+=(const Counts& o) {
  for (auto f : kFields) this->*f += o.*f;
  return *this;
}

std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t RoundResult::fingerprint() const {
  std::uint64_t h = fnv1a(op_ns.data(), op_ns.size() * sizeof(double));
  return fnv1a(op_bytes.data(), op_bytes.size() * sizeof(std::uint32_t), h);
}

void check_quiescent(RoundResult& r, const bb::net::TransportStats& s,
                     std::size_t tx_unacked) {
  if (s.packets_sent + s.packets_duplicated !=
      s.packets_delivered + s.packets_dropped + s.packets_corrupted) {
    r.fail("wire conservation violated: sent " + std::to_string(s.packets_sent) +
           " + duplicated " + std::to_string(s.packets_duplicated) + " != delivered " +
           std::to_string(s.packets_delivered) + " + dropped " +
           std::to_string(s.packets_dropped) + " + corrupted " +
           std::to_string(s.packets_corrupted));
  }
  if (tx_unacked != 0) {
    r.fail(std::to_string(tx_unacked) + " data packets unacknowledged at quiescence");
  }
}

std::vector<std::uint32_t> size_sequence(std::span<const std::uint32_t> sizes,
                                         std::uint64_t seed, std::uint64_t label,
                                         std::uint64_t n) {
  std::vector<std::uint32_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = sizes[i % sizes.size()];
  bb::Rng rng(bb::derive_seed(seed, label));
  for (std::uint64_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.uniform_u64(i)]);
  return v;
}

void arm_event_limit(bb::sim::Simulator& sim, std::uint64_t budget) {
  sim.set_event_limit(sim.events_processed() + budget);
}

double host_s_since(std::int64_t t0_ns) {
  return static_cast<double>(host_now_ns() - t0_ns) * 1e-9;
}

namespace {

/// One timing of the reference kernel: a discrete-event-style loop that
/// pops the earliest key from a binary heap and pushes a later one.
double kernel_s() {
  constexpr std::size_t kKeys = 1 << 14;
  constexpr int kSteps = 100000;
  static std::vector<std::uint64_t> heap = [] {
    std::vector<std::uint64_t> h(kKeys);
    std::uint64_t x = 1;
    for (auto& k : h) k = (x = x * 6364136223846793005ull + 1442695040888963407ull) >> 40;
    std::make_heap(h.begin(), h.end(), std::greater<>());
    return h;
  }();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const std::int64_t t0 = host_now_ns();
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    heap.back() += 1 + (x >> 54);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  return host_s_since(t0);
}

}  // namespace

double host_speed() {
  double t[3];
  for (double& v : t) v = kernel_s();
  std::sort(std::begin(t), std::end(t));
  return kNominalKernelS / t[1];
}

}  // namespace perfbench
