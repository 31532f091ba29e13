#include "llp/endpoint.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "nic/nic.hpp"

namespace bb::llp {

Endpoint::Endpoint(Worker& worker, pcie::RootComplex& rc, nic::Nic& nic,
                   std::uint32_t qp, int peer_node, EndpointConfig cfg)
    : worker_(worker),
      rc_(rc),
      nic_(nic),
      qp_(qp),
      peer_node_(peer_node),
      cfg_(cfg),
      tx_cq_(worker.host().tx_cq(qp)) {
  // With moderation period > TxQ depth the queue can fill before any
  // descriptor is signalled, so no CQE is ever generated and every later
  // post busy-loops forever -- the same deadlock a real mlx5 queue pair
  // would exhibit. Reject the configuration up front.
  BB_ASSERT_MSG(cfg_.signal.period <= cfg_.txq_depth,
                "unsignalled-completion period must not exceed TxQ depth");
  worker_.register_endpoint(this);
}

int Endpoint::node() const { return nic_.node_id(); }

sim::Task<Status> Endpoint::put_short(std::uint32_t bytes) {
  return post(pcie::WireOp::kRdmaWrite, bytes);
}

sim::Task<Status> Endpoint::am_short(std::uint32_t bytes,
                                     std::uint64_t user_data) {
  return post(pcie::WireOp::kSend, bytes, /*force_signal=*/false, user_data);
}

sim::Task<Status> Endpoint::flush() {
  if (outstanding_ == 0) co_return Status::kOk;
  co_return co_await post(pcie::WireOp::kRdmaWrite, 0,
                          /*force_signal=*/true);
}

sim::Task<Status> Endpoint::post(pcie::WireOp op, std::uint32_t bytes,
                                 bool force_signal,
                                 std::uint64_t user_data) {
  cpu::Core& core = worker_.core();
  const cpu::CpuCostModel& costs = core.costs();
  prof::Profiler& prof = worker_.profiler();

  if (outstanding_ >= cfg_.txq_depth) {
    // Busy post: early-exit before any descriptor work (§4.2).
    ++busy_posts_;
    auto rb = prof.begin(prof::Site::kBusyPost);
    core.consume(costs.busy_post);
    prof.end(rb);
    co_return Status::kNoResource;
  }

  auto r_total = prof.begin(prof::Site::kLlpPost);

  auto step = [&](const char* name, const cpu::CostSpec& spec) {
    auto r = prof.begin(prof::Site::kLlpPostSteps, name);
    core.consume(spec);
    prof.end(r);
  };

  // (1) Prepare the MD; includes the inline-payload memcpy.
  step("MD setup", costs.md_setup);
  // (2) Store barrier: MD fully written before signalling the NIC.
  step("Barrier for MD", costs.barrier_store_md);
  // (3)+(4) DoorBell counter increment + its store barrier.
  step("Barrier for DBC", costs.barrier_store_dbc);

  pcie::WireMd md;
  md.msg_id = worker_.alloc_msg_id();
  md.qp = qp_;
  md.dst_node = peer_node_;
  md.user_data = user_data;
  md.op = op;
  md.payload_bytes = bytes;
  md.inline_payload = cfg_.inline_payload && bytes <= cfg_.max_inline_bytes;
  ++signal_counter_;
  md.signaled = force_signal || (signal_counter_ % cfg_.signal.period) == 0;

  std::uint32_t mmio_bytes = 0;
  if (cfg_.use_pio) {
    // (5) PIO copy in 64-byte chunks (§2). Without inlining, the payload
    // still needs a DMA read, so only the control segment is copied.
    const std::uint32_t body =
        cfg_.md_overhead_bytes + (md.inline_payload ? bytes : 0);
    const std::uint32_t chunks = (body + 63) / 64;
    for (std::uint32_t i = 0; i < chunks; ++i) {
      step("PIO copy", costs.pio_copy_64b);
    }
    mmio_bytes = chunks * 64;
  } else {
    // DoorBell path: the driver already wrote the MD into the host ring
    // (covered by MD setup); ring the 8-byte DoorBell.
    worker_.host().stage_descriptor(md);
    step("DoorBell write", costs.doorbell_write_8b);
    mmio_bytes = 8;
  }

  // Function-call overhead, branches to decide the code path, etc.
  step("Other", costs.llp_post_misc);

  ++outstanding_;
  ++posted_;

  prof.end(r_total);

  // Interaction point: materialize the accrued CPU time, then hand the
  // posted write to the Root Complex.
  co_await core.flush();

  pcie::Tlp tlp;
  tlp.type = pcie::TlpType::kMemWrite;
  tlp.bytes = mmio_bytes;
  if (cfg_.use_pio) {
    tlp.content = pcie::DescriptorWrite{md};
  } else {
    tlp.content = pcie::DoorbellWrite{qp_, ++doorbell_counter_};
  }
  rc_.post_mmio(std::move(tlp));

  co_return Status::kOk;
}

void Endpoint::on_tx_cqe(const nic::Cqe& cqe) {
  BB_ASSERT_MSG(outstanding_ >= cqe.completes,
                "CQE retired more ops than outstanding");
  outstanding_ -= cqe.completes;
  if (cqe.status != Status::kOk) ++tx_errors_;
  if (cqe.status == Status::kFlushed) ++tx_flushed_;
}

bool Endpoint::qp_in_error() const {
  return nic_.qp_state(qp_) == nic::QpState::kError;
}

sim::Task<Status> Endpoint::reconnect() {
  // Drain every outstanding op first. A QP in the error state has
  // already flushed them as error CQEs; a healthy QP finishes them
  // normally. Either way progress() retires them all.
  double backoff_ns = 0.0;
  while (outstanding_ > 0) {
    const std::uint32_t progressed = co_await worker_.progress();
    if (progressed > 0) {
      backoff_ns = 0.0;
      continue;
    }
    backoff_ns = backoff_ns == 0.0 ? 50.0 : std::min(backoff_ns * 2.0, 4000.0);
    co_await worker_.core().simulator().delay(TimePs::from_ns(backoff_ns));
  }
  // Modify-QP ladder, then poll for the re-handshake like a verbs driver
  // polls the async event queue.
  nic_.qp_reset(qp_);
  nic_.qp_connect(qp_, peer_node_);
  backoff_ns = 100.0;
  while (nic_.qp_state(qp_) == nic::QpState::kConnecting) {
    co_await worker_.core().simulator().delay(TimePs::from_ns(backoff_ns));
    backoff_ns = std::min(backoff_ns * 2.0, 4000.0);
  }
  co_return nic_.qp_state(qp_) == nic::QpState::kRts ? Status::kOk
                                                      : Status::kIoError;
}

}  // namespace bb::llp
