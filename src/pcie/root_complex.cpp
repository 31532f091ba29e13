#include "pcie/root_complex.hpp"

#include "common/assert.hpp"

namespace bb::pcie {

RootComplex::RootComplex(sim::Simulator& sim, Link& link, RcParams params,
                         CreditState credits)
    : sim_(sim),
      link_(link),
      params_(params),
      credits_(credits),
      ingress_(sim),
      credit_avail_(sim) {
  link_.set_a_tlp_handler([this](const Tlp& t) { on_upstream_tlp(t); });
  link_.set_a_dllp_handler([this](const Dllp& d) { on_upstream_dllp(d); });
  sim_.spawn(downstream_pump(), "rc-downstream-pump");
}

void RootComplex::post_mmio(Tlp tlp) {
  tlp.dir = Direction::kDownstream;
  ingress_.send(std::move(tlp));
}

sim::Task<void> RootComplex::downstream_pump() {
  for (;;) {
    Tlp tlp = co_await ingress_.receive();
    // §2: a transaction may be issued only with sufficient credits;
    // otherwise wait for an UpdateFC from the NIC.
    link_.collect_credit_updates(Direction::kUpstream);
    while (!credits_.can_send(tlp)) {
      ++credit_stalls_;
      link_.watch_credit_updates(Direction::kUpstream, true);
      co_await credit_avail_.wait();
    }
    link_.watch_credit_updates(Direction::kUpstream, false);
    credits_.consume(tlp);
    ++mmio_issued_;
    link_.send_downstream(std::move(tlp));
  }
}

void RootComplex::on_upstream_tlp(const Tlp& tlp) {
  if (tlp.poisoned && tlp.type == TlpType::kMemRead) {
    // A poisoned MRd cannot be served (its request fields are nominally
    // corrupt): answer with a poisoned CplD -- without consuming the
    // host-side read state, so the NIC's retry can be served cleanly --
    // and still release the credits the MRd consumed.
    const auto* req = std::get_if<ReadRequest>(&tlp.content);
    BB_ASSERT_MSG(req != nullptr, "MRd without a ReadRequest content");
    Tlp cpl;
    cpl.type = TlpType::kCompletionData;
    cpl.bytes = req->bytes;
    cpl.tag = tlp.tag;
    cpl.poisoned = true;
    ReadCompletion rc;
    rc.what = req->what;
    rc.bytes = req->bytes;
    rc.served = false;
    cpl.content = rc;
    link_.send_downstream(std::move(cpl));
    link_.send_dllp_downstream(ledger_.release_for(tlp));
    return;
  }
  switch (tlp.type) {
    case TlpType::kMemWrite: {
      // Commit to host memory after RC-to-MEM(x B); then visible to loads.
      const TimePs visible = sim_.now() + params_.rc_to_mem(tlp.bytes);
      ++mem_writes_committed_;
      if (mem_sink_) {
        // The notice precedes the commit's call_at, so a poller it wakes
        // is queued ahead of the commit, as it was had it never parked.
        if (write_notice_) write_notice_();
        sim_.call_at(visible,
                     [this, tlp, visible] { mem_sink_(tlp, visible); });
      }
      break;
    }
    case TlpType::kMemRead: {
      BB_ASSERT_MSG(read_provider_, "MRd received but no read provider");
      const auto* req = std::get_if<ReadRequest>(&tlp.content);
      BB_ASSERT_MSG(req != nullptr, "MRd without a ReadRequest content");
      // Serve from DRAM, then return a CplD downstream.
      const ReadRequest request = *req;
      const std::uint64_t tag = tlp.tag;
      sim_.call_in(TimePs::from_ns(params_.mem_read_ns),
                   [this, request, tag] {
                     ReadCompletion rc = read_provider_(request);
                     Tlp cpl;
                     cpl.type = TlpType::kCompletionData;
                     cpl.bytes = rc.bytes;
                     cpl.tag = tag;
                     cpl.content = rc;
                     link_.send_downstream(std::move(cpl));
                   });
      break;
    }
    case TlpType::kCompletionData:
      BB_UNREACHABLE("RC does not expect upstream CplD in this topology");
  }
  // Return the consumed credits to the NIC (cumulative totals: idempotent
  // under loss-recovery re-emission).
  link_.send_dllp_downstream(ledger_.release_for(tlp));
}

void RootComplex::on_upstream_dllp(const Dllp& d) {
  if (d.type == DllpType::kUpdateFC) {
    credits_.replenish(d);
    credit_avail_.fire();
  }
  // Acks/Naks: the error-free link needs no replay logic.
}

}  // namespace bb::pcie
