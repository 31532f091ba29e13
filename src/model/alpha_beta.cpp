#include "model/alpha_beta.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace bb::model {

PtPtModel::PtPtModel(const scenario::SystemConfig& cfg,
                     std::uint32_t rndv_threshold)
    : cfg_(cfg), rndv_(rndv_threshold) {}

bool PtPtModel::inlined(std::uint32_t m) const {
  return cfg_.endpoint.inline_payload && m <= cfg_.endpoint.max_inline_bytes;
}

std::uint32_t PtPtModel::pio_chunks(std::uint32_t m) const {
  const std::uint32_t md = cfg_.endpoint.md_overhead_bytes;
  const std::uint32_t body = inlined(m) ? md + m : md;
  return (body + 63) / 64;
}

double PtPtModel::llp_post_ns(std::uint32_t m) const {
  const cpu::CpuCostModel& c = cfg_.cpu;
  double t = c.md_setup.mean_ns + c.barrier_store_md.mean_ns +
             c.barrier_store_dbc.mean_ns + c.llp_post_misc.mean_ns;
  if (cfg_.endpoint.use_pio) {
    t += static_cast<double>(pio_chunks(m)) * c.pio_copy_64b.mean_ns;
  } else {
    t += c.doorbell_write_8b.mean_ns;
  }
  return t;
}

double PtPtModel::osend_ns(std::uint32_t m) const {
  const cpu::CpuCostModel& c = cfg_.cpu;
  // Rendezvous initiation posts only the 8-byte RTS; the payload moves
  // later, off the initiation path.
  const std::uint32_t posted = m >= rndv_ ? 8 : m;
  return c.mpich_isend.mean_ns + c.ucp_isend.mean_ns + llp_post_ns(posted);
}

double PtPtModel::eager_transit_ns(std::uint32_t m) const {
  const pcie::LinkParams& l = cfg_.link;
  const pcie::RcParams& rc = cfg_.rc;
  const nic::NicParams& n = cfg_.nic;
  double t = 0.0;
  if (cfg_.endpoint.use_pio) {
    // The PIO copy arrives as one MWr of `chunks` 64-byte lines.
    t += l.tlp_latency(pio_chunks(m) * 64).to_ns();
    if (!inlined(m)) {
      // Payload DMA fetch: MRd up, DRAM read, CplD(m) down.
      t += l.tlp_latency(0).to_ns() + rc.mem_read_ns +
           l.tlp_latency(m).to_ns();
    }
  } else {
    // DoorBell ring, descriptor fetch, then (unless inline) payload fetch.
    t += l.tlp_latency(8).to_ns() + n.doorbell_proc_ns;
    t += l.tlp_latency(0).to_ns() + rc.mem_read_ns + l.tlp_latency(64).to_ns();
    if (!cfg_.endpoint.inline_payload) {
      t += l.tlp_latency(0).to_ns() + rc.mem_read_ns +
           l.tlp_latency(m).to_ns();
    }
  }
  // Injection, fabric, and the receive-side DMA commit.
  t += n.tx_proc_ns + cfg_.net.network_latency().to_ns() + n.rx_proc_ns +
       l.tlp_latency(m).to_ns() + rc.rc_to_mem(m).to_ns();
  return t;
}

double PtPtModel::transit_ns(std::uint32_t m) const {
  if (m < rndv_) return eager_transit_ns(m);
  const pcie::LinkParams& l = cfg_.link;
  const pcie::RcParams& rc = cfg_.rc;
  const nic::NicParams& n = cfg_.nic;
  const cpu::CpuCostModel& c = cfg_.cpu;
  // RTS over, CTS back (8-byte control messages, each decoded by a UCP
  // progress pass on arrival and answered from the progress engine).
  double t = eager_transit_ns(8) + c.llp_prog.mean_ns +
             c.ucp_progress_iter.mean_ns + poll_gap_ns() + llp_post_ns(8) +
             eager_transit_ns(8) + c.llp_prog.mean_ns +
             c.ucp_progress_iter.mean_ns + poll_gap_ns();
  // The data put: descriptor-only post, payload DMA fetch, inject, commit.
  t += llp_post_ns(m >= rndv_ ? rndv_ : m);  // descriptor-only (never inline)
  t += l.tlp_latency(pio_chunks(rndv_) * 64).to_ns() + l.tlp_latency(0).to_ns() +
       rc.mem_read_ns + l.tlp_latency(m).to_ns();
  t += n.tx_proc_ns + cfg_.net.network_latency().to_ns() + n.rx_proc_ns +
       l.tlp_latency(m).to_ns();
  // The FIN follows the payload, as an RC QP's in-order WQEs require,
  // and adds only its own 8-byte commit. The simulation does not keep
  // that order yet: its inline FIN overtakes the put's DMA fetch, and its
  // RC commits a later 8-byte write before an earlier large one, so a
  // rendezvous receive completes before the payload lands (ROADMAP 2).
  t += rc.rc_to_mem(8).to_ns();
  return t;
}

double PtPtModel::orecv_ns() const {
  const cpu::CpuCostModel& c = cfg_.cpu;
  return c.llp_prog.mean_ns + c.ucp_rx_callback.mean_ns +
         c.mpich_rx_callback.mean_ns + c.mpich_after_progress.mean_ns;
}

double PtPtModel::poll_gap_ns() const {
  const cpu::CpuCostModel& c = cfg_.cpu;
  // A completion lands mid progress pass and is observed on the next one:
  // on average half an empty pass.
  return 0.5 * (c.ucp_progress_iter.mean_ns + c.llp_empty_progress.mean_ns);
}

double PtPtModel::msg_ns(std::uint32_t m) const {
  return osend_ns(m) + transit_ns(m) + poll_gap_ns() + orecv_ns();
}

// --------------------------------------------------------------- CollModel

namespace {

int ceil_log2(int n) {
  int r = 0;
  for (int k = 1; k < n; k <<= 1) ++r;
  return r;
}

// Critical-path depth of the MPICH binomial tree on n ranks: relative
// rank vr sits popcount(vr) hops below the root, and the descending-mask
// send order gives the deepest subtree each parent's *first* send, so no
// serialized-osend penalty accrues along the deepest chain. Equal to
// ceil(log2 n) only when n is a power of two (e.g. 3 for n=12, not 4).
int binomial_depth(int n) {
  int d = 0;
  for (int vr = 1; vr < n; ++vr) {
    int bits = 0;
    for (int x = vr; x != 0; x &= x - 1) ++bits;
    d = std::max(d, bits);
  }
  return d;
}

}  // namespace

double CollModel::step_ns(std::uint32_t m) const {
  // One synchronized schedule step: every rank initiates, the step ends
  // when the peer's message lands and completes. The blocking-wait fixed
  // work and the send-progress bookkeeping overlap the transit (they are
  // charged while the wire is busy), so they stay off the critical path.
  return p_.msg_ns(m);
}

double CollModel::barrier_ns(int nranks, coll::Algo a) const {
  if (nranks < 2) return 0.0;
  switch (coll::resolve_barrier(t_, nranks, a)) {
    case coll::Algo::kRingToken:
      // Two laps of a token, each hop a full 8-byte message.
      return 2.0 * nranks * step_ns(8);
    default:
      // Dissemination: ceil(log2 n) synchronized exchange rounds.
      return static_cast<double>(ceil_log2(nranks)) * step_ns(8);
  }
}

double CollModel::bcast_ns(int nranks, std::uint32_t bytes,
                           coll::Algo a) const {
  if (nranks < 2) return 0.0;
  const std::uint32_t wb = coll::wire_bytes(bytes);
  switch (coll::resolve_bcast(t_, nranks, bytes, a)) {
    case coll::Algo::kChain: {
      const std::uint32_t seg =
          std::max<std::uint32_t>(8, t_.bcast_chain_segment_bytes);
      const int nseg = static_cast<int>((bytes + seg - 1) / seg);
      const std::uint32_t seg_wb = coll::wire_bytes(std::min(bytes, seg));
      // Pipeline: segment 0 fills the n-1 link chain, the remaining
      // segments drain through the last link at the per-segment CPU
      // interval (receive + forward).
      const double interval =
          p_.orecv_ns() + p_.poll_gap_ns() + p_.osend_ns(seg_wb);
      return static_cast<double>(nranks - 1) * step_ns(seg_wb) +
             static_cast<double>(nseg - 1) * interval;
    }
    default:
      // Binomial: the deepest leaf is binomial_depth(n) sequential hops
      // away, each hop forwarding the full payload on arrival.
      return static_cast<double>(binomial_depth(nranks)) * step_ns(wb);
  }
}

double CollModel::allgather_ns(int nranks, std::uint32_t bytes_per_rank,
                               coll::Algo a) const {
  if (nranks < 2) return 0.0;
  switch (coll::resolve_allgather(t_, nranks, bytes_per_rank, a)) {
    case coll::Algo::kRingAllgather:
      return static_cast<double>(nranks - 1) *
             step_ns(coll::wire_bytes(bytes_per_rank));
    default: {
      // Bruck: round k ships min(k, n-k) blocks.
      double total = 0.0;
      for (int k = 1; k < nranks; k <<= 1) {
        const int cnt = std::min(k, nranks - k);
        total += step_ns(coll::wire_bytes(static_cast<std::uint64_t>(cnt) *
                                          bytes_per_rank));
      }
      return total;
    }
  }
}

double CollModel::allreduce_ns(int nranks, std::uint32_t bytes,
                               coll::Algo a) const {
  if (nranks < 2) return 0.0;
  const std::uint32_t wb = coll::wire_bytes(bytes);
  switch (coll::resolve_allreduce(t_, nranks, bytes, a)) {
    case coll::Algo::kRingAllreduce: {
      // 2(n-1) chunk steps; the step clock is the largest chunk
      // (ceil-partitioned, so chunks differ by at most one element).
      const std::uint64_t elems = bytes / 8;
      const std::uint64_t chunk =
          (elems + static_cast<std::uint64_t>(nranks) - 1) /
          static_cast<std::uint64_t>(nranks);
      return 2.0 * (nranks - 1) * step_ns(coll::wire_bytes(8 * chunk));
    }
    default: {
      // Recursive doubling: log2(pof2) exchange rounds, plus the fold and
      // unfold hops when n is not a power of two.
      int pof2 = 1;
      while (pof2 * 2 <= nranks) pof2 *= 2;
      const int extra = nranks - pof2 > 0 ? 2 : 0;
      return static_cast<double>(ceil_log2(pof2) + extra) * step_ns(wb);
    }
  }
}

}  // namespace bb::model
