#include "hlp/ucp.hpp"

#include "common/assert.hpp"

namespace bb::hlp {

UcpWorker::UcpWorker(llp::Worker& uct_worker, UcpConfig cfg)
    : uct_worker_(uct_worker), cfg_(cfg) {
  uct_worker_.set_rx_handler(
      [this](const nic::Cqe& cqe) { on_rx_completion(cqe); });
}

void UcpWorker::connect(llp::Endpoint& endpoint) {
  const int rank = endpoint.peer_node();
  BB_ASSERT(rank >= 0);
  BB_ASSERT_MSG(node_ < 0 || endpoint.node() == node_,
                "every endpoint of a worker sends from one node");
  node_ = endpoint.node();
  if (by_rank_.size() <= static_cast<std::size_t>(rank)) {
    by_rank_.resize(static_cast<std::size_t>(rank) + 1, nullptr);
  }
  BB_ASSERT_MSG(by_rank_[static_cast<std::size_t>(rank)] == nullptr,
                "peer already connected");
  auto p = std::make_unique<Peer>(rank, endpoint);
  by_rank_[static_cast<std::size_t>(rank)] = p.get();
  auto at = peers_.begin();
  while (at != peers_.end() && (*at)->rank < rank) ++at;
  peers_.insert(at, std::move(p));
}

int UcpWorker::sole_peer() const {
  BB_ASSERT_MSG(peers_.size() == 1, "worker has more or fewer than one peer");
  return peers_.front()->rank;
}

UcpWorker::Peer& UcpWorker::peer(int rank) {
  BB_ASSERT_MSG(rank >= 0 && static_cast<std::size_t>(rank) < by_rank_.size() &&
                    by_rank_[static_cast<std::size_t>(rank)] != nullptr,
                "peer not connected");
  return *by_rank_[static_cast<std::size_t>(rank)];
}

std::size_t UcpWorker::pending_sends() const {
  std::size_t n = 0;
  for (const auto& p : peers_) n += p->pending_sends.size();
  return n;
}

Request* UcpWorker::new_request(Request::Kind kind, std::uint32_t bytes) {
  const Request fresh{.kind = kind, .bytes = bytes, .seq = next_seq_++};
  if (free_requests_.empty()) return &requests_.emplace_back(fresh);
  Request* req = free_requests_.back();
  free_requests_.pop_back();
  *req = fresh;
  return req;
}

void UcpWorker::release(Request* req) {
  BB_ASSERT_MSG(req->complete, "released an incomplete request");
  if (req->released) return;
  req->released = true;
  free_requests_.push_back(req);
}

sim::Task<common::Status> UcpWorker::try_post(Peer& p, Request* req) {
  const llp::Status st =
      co_await p.endpoint.am_short(req->bytes, header(Ctrl::kEager, 0));
  if (st == llp::Status::kOk) {
    // Inlined short send: locally complete once the payload left the CPU.
    req->pending = false;
    req->complete = true;
    ++sends_completed_;
  }
  co_return st;
}

sim::Task<common::Expected<Request*>> UcpWorker::tag_send_nb(
    int peer_rank, std::uint32_t bytes) {
  Peer& p = peer(peer_rank);
  cpu::Core& c = core();
  c.consume(c.costs().ucp_isend);
  Request* req = new_request(Request::Kind::kSend, bytes);

  if (bytes >= cfg_.rndv_threshold) {
    // Rendezvous: advertise with an RTS; the payload moves after the CTS.
    ++rndv_sends_;
    const std::uint64_t seq = p.next_rndv_seq++;
    p.rndv_tx_waiting[seq] = req;
    p.pending_ctrl.push_back(header(Ctrl::kRts, seq));
    ++queued_;
    co_await progress_rndv(p);
    co_return req;
  }

  if (!p.pending_sends.empty() ||
      co_await try_post(p, req) != common::Status::kOk) {
    // Preserve ordering: once anything pends, later sends pend too.
    req->pending = true;
    p.pending_sends.push_back(req);
    ++queued_;
  }
  co_return req;
}

void UcpWorker::complete_recv(Request* req, common::Status st) {
  cpu::Core& c = core();
  prof::Profiler& prof = uct_worker_.profiler();

  // UCP's registered callback: match, update request state.
  auto r1 = prof.begin(prof::Site::kUcpCallback);
  c.consume(c.costs().ucp_rx_callback);
  req->complete = true;
  req->status = st;
  ++recvs_completed_;
  prof.end(r1);

  // The upper (MPICH) registered callback runs inside UCP's (§5).
  if (upper_rx_cb_) upper_rx_cb_(req);
}

void UcpWorker::match(Peer& p, const nic::Cqe& cqe, Request* req) {
  if (ctrl_of(cqe.user_data) == Ctrl::kEager) {
    complete_recv(req, cqe.status);  // the payload already landed
    return;
  }
  p.rndv_rx_waiting[seq_of(cqe.user_data)] = req;
  p.pending_ctrl.push_back(header(Ctrl::kCts, seq_of(cqe.user_data)));
  ++queued_;
}

common::Expected<Request*> UcpWorker::tag_recv_nb(int peer_rank,
                                                  std::uint32_t bytes) {
  Peer& p = peer(peer_rank);
  Request* req = new_request(Request::Kind::kRecv, bytes);
  if (p.unexpected.empty()) {
    p.posted_recvs.push_back(req);
    return req;
  }
  const nic::Cqe cqe = p.unexpected.front();
  p.unexpected.pop_front();
  match(p, cqe, req);
  return req;
}

void UcpWorker::on_rx_completion(const nic::Cqe& cqe) {
  Peer& p = peer(src_of(cqe.user_data));
  switch (ctrl_of(cqe.user_data)) {
    case Ctrl::kRts:
      // Sender advertised a large message.
      core().consume(core().costs().ucp_progress_iter);  // header decode
      [[fallthrough]];
    case Ctrl::kEager: {
      if (p.posted_recvs.empty()) {
        p.unexpected.push_back(cqe);
        return;
      }
      Request* req = p.posted_recvs.front();
      p.posted_recvs.pop_front();
      match(p, cqe, req);
      return;
    }
    case Ctrl::kCts: {
      // Receiver is ready: schedule the data put + FIN.
      core().consume(core().costs().ucp_progress_iter);
      auto it = p.rndv_tx_waiting.find(seq_of(cqe.user_data));
      BB_ASSERT_MSG(it != p.rndv_tx_waiting.end(), "CTS for unknown rndv op");
      p.rndv_tx_ready.push_back(
          RndvData{it->first, it->second->bytes, it->second, false});
      ++queued_;
      p.rndv_tx_waiting.erase(it);
      return;
    }
    case Ctrl::kFin: {
      // Data landed in our buffer; complete the receive.
      auto it = p.rndv_rx_waiting.find(seq_of(cqe.user_data));
      BB_ASSERT_MSG(it != p.rndv_rx_waiting.end(), "FIN for unknown rndv op");
      Request* req = it->second;
      p.rndv_rx_waiting.erase(it);
      complete_recv(req, cqe.status);
      return;
    }
  }
  BB_UNREACHABLE("bad control header");
}

sim::Task<void> UcpWorker::progress_rndv(Peer& p) {
  // Control messages first (RTS/CTS/FIN are small sends).
  while (!p.pending_ctrl.empty()) {
    const std::uint64_t h = p.pending_ctrl.front();
    if (co_await p.endpoint.am_short(8, h) != llp::Status::kOk) {
      co_return;  // TxQ full: retried on the next pass
    }
    p.pending_ctrl.pop_front();
    --queued_;
  }
  // Rendezvous payload transfers: a one-sided put, then the FIN. The NIC
  // injects the inline FIN while it still fetches the put's payload, so
  // the FIN overtakes it (ROADMAP item 2; RC must run WQEs in order).
  while (!p.rndv_tx_ready.empty()) {
    RndvData& op = p.rndv_tx_ready.front();
    if (!op.data_sent) {
      if (co_await p.endpoint.put_short(op.bytes) != llp::Status::kOk) {
        co_return;
      }
      op.data_sent = true;
    }
    if (co_await p.endpoint.am_short(8, header(Ctrl::kFin, op.seq)) !=
        llp::Status::kOk) {
      co_return;
    }
    op.req->complete = true;
    ++sends_completed_;
    p.rndv_tx_ready.pop_front();
    --queued_;
  }
}

sim::Task<std::uint32_t> UcpWorker::progress(const llp::IdleLoop* idle) {
  cpu::Core& c = core();
  prof::Profiler& prof = uct_worker_.profiler();
  auto r = prof.begin(prof::Site::kUcpWorkerProgress);
  // A measured pass never parks: its closing overhead is no pass cost.
  if (prof.wraps(prof::Site::kUcpWorkerProgress)) idle = nullptr;

  c.consume(c.costs().ucp_progress_iter);

  // Retry pending sends (busy posts rescheduled by UCP, §6). Each walk
  // visits peers in rank order, and only while something is queued.
  if (queued_ != 0) {
    for (const auto& p : peers_) {
      while (!p->pending_sends.empty()) {
        Request* req = p->pending_sends.front();
        if (co_await try_post(*p, req) != common::Status::kOk) break;
        p->pending_sends.pop_front();
        --queued_;
      }
    }
  }

  const std::uint32_t n = co_await uct_worker_.progress(0, idle);

  // Drive rendezvous state machines unblocked by the completions above.
  if (queued_ != 0) {
    for (const auto& p : peers_) {
      if (p->has_rndv_work()) co_await progress_rndv(*p);
    }
  }

  prof.end(r);
  co_return n;
}

}  // namespace bb::hlp
