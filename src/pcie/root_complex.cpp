#include "pcie/root_complex.hpp"

#include "common/assert.hpp"

namespace bb::pcie {

RootComplex::RootComplex(sim::Simulator& sim, Link& link, RcParams params)
    : sim_(sim), link_(link), params_(params) {
  link_.set_a_tlp_handler([this](const Tlp& t) { on_upstream_tlp(t); });
}

void RootComplex::post_mmio(Tlp tlp) {
  link_.post(Direction::kDownstream, std::move(tlp));
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
    link_.release_credits(tlp);
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
  // Return the consumed credits to the NIC.
  link_.release_credits(tlp);
}

}  // namespace bb::pcie
