#include "nic/queues.hpp"

#include "common/assert.hpp"

namespace bb::nic {

std::optional<Cqe> CqRing::poll(TimePs now) {
  if (entries_.empty() || entries_.front().visible_at > now) {
    return std::nullopt;
  }
  Cqe e = entries_.front();
  entries_.pop_front();
  if (present_ != nullptr) --*present_;
  return e;
}

std::size_t CqRing::visible_count(TimePs now) const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.visible_at > now) break;  // entries are pushed in time order
    ++n;
  }
  return n;
}

std::size_t HostMemory::staged_count(std::uint32_t qp) const {
  auto it = staged_.find(qp);
  return it == staged_.end() ? 0 : it->second.size();
}

std::optional<pcie::WireMd> HostMemory::take_staged(std::uint32_t qp) {
  auto it = staged_.find(qp);
  if (it == staged_.end() || it->second.empty()) return std::nullopt;
  pcie::WireMd md = it->second.front();
  it->second.pop_front();
  return md;
}

void HostMemory::note_write_scheduled() {
  settle_noticed();
  // Last parked first, as wake_parked() goes: each takes the seq of the
  // resume it would queue in that order.
  while (!parked_.empty()) {
    sim::Parked* p = parked_.back();
    const std::size_t before = parked_.size();
    if (const auto at = p->notice()) {
      BB_ASSERT_MSG(parked_.size() == before, "noticed poller unparked");
      parked_.pop_back();
      auto it = noticed_.end();
      while (it != noticed_.begin() && at->before((it - 1)->at)) --it;
      noticed_.insert(it, Noticed{p, *at});
    } else {
      BB_ASSERT_MSG(parked_.size() < before, "woken poller stayed parked");
    }
  }
}

void HostMemory::settle_noticed() {
  std::size_t n = 0;
  while (n < noticed_.size() && noticed_[n].at.ran()) {
    parked_.push_back(noticed_[n++].p);
  }
  noticed_.erase(noticed_.begin(), noticed_.begin() + n);
}

void HostMemory::wake_parked(sim::Tie tie) {
  settle_noticed();
  // Each wake() unparks its poller, which removes it from the list.
  while (!parked_.empty()) {
    const std::size_t before = parked_.size();
    parked_.back()->wake(tie);
    BB_ASSERT_MSG(parked_.size() < before, "woken poller stayed parked");
  }
  // Noticed pollers whose pass has not run yet resume there.
  while (!noticed_.empty()) {
    const std::size_t before = noticed_.size();
    noticed_.back().p->wake(tie);
    BB_ASSERT_MSG(noticed_.size() < before, "woken poller stayed parked");
  }
}

void HostMemory::unpark(sim::Parked* p) {
  settle_noticed();
  for (auto& q : parked_) {
    if (q == p) {
      q = parked_.back();
      parked_.pop_back();
      return;
    }
  }
  for (auto it = noticed_.begin(); it != noticed_.end(); ++it) {
    if (it->p == p) {
      noticed_.erase(it);
      return;
    }
  }
  BB_UNREACHABLE("unpark of a poller that is not parked here");
}

void HostMemory::commit_write(const pcie::Tlp& tlp, TimePs visible_at) {
  // Error forwarding: a poisoned DMA write still lands (the RC commits
  // it), but any completion it carries is flagged as an error.
  const common::Status st =
      tlp.poisoned ? common::Status::kIoError : common::Status::kOk;
  if (const auto* cqe = std::get_if<pcie::CqeWrite>(&tlp.content)) {
    const common::Status cqe_st =
        cqe->status != common::Status::kOk ? cqe->status : st;
    tx_cq(cqe->qp).push(
        Cqe{cqe->msg_id, cqe->completes, 0, 0, visible_at, cqe_st});
  } else if (const auto* pl = std::get_if<pcie::PayloadWrite>(&tlp.content)) {
    payload_bytes_delivered_ += pl->bytes;
    ++payload_writes_;
    if (pl->op == pcie::WireOp::kSend) {
      // Send-receive: the payload write carries the receive completion
      // (mini-CQE); the posted receive completes when the write is visible.
      rx_cq_.push(Cqe{pl->msg_id, 1, pl->user_data, pl->bytes, visible_at, st});
    }
  } else {
    BB_UNREACHABLE("unexpected memory write content");
  }
  wake_parked(sim::Tie::kWakeFirst);
  if (commit_hook_) commit_hook_();
}

pcie::ReadCompletion HostMemory::serve_read(const pcie::ReadRequest& req) {
  pcie::ReadCompletion rc;
  rc.what = req.what;
  rc.bytes = req.bytes;
  if (req.what == pcie::ReadRequest::What::kDescriptor) {
    auto& q = staged_[req.qp];
    BB_ASSERT_MSG(!q.empty(), "NIC fetched a descriptor that was not staged");
    rc.md = q.front();
    q.pop_front();
    rc.bytes = 64;  // a device descriptor slot
  }
  return rc;
}

}  // namespace bb::nic
