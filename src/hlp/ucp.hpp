#pragma once
// The UCP-like protocol layer (§5): tag send/receive over UCT, pending-
// operation rescheduling, and the registered-callback chain.
//
// One UcpWorker serves one rank, as a ucp_worker serves one process: it
// owns the node's RX CQ through the LLP worker and keeps the protocol
// state toward every peer it is connected to (one endpoint each). Every
// message header carries the sending node, so an RX completion is
// matched against that peer's receives only.
//
// Semantics follow UCX for the small-message regime the paper studies:
//  * An inlined short tag-send completes locally as soon as the LLP post
//    succeeds (the payload left the CPU). Its TxQ slot is recycled later
//    when a (possibly unsignalled-moderated) CQE is polled.
//  * A tag-send that hits a busy post is queued as a pending operation and
//    retried during worker progress.
//  * A receive completes when the inbound payload write is visible and the
//    RX completion is polled; the UCP callback runs first, then the
//    registered upper-layer (MPICH) callback -- both before
//    uct_worker_progress returns (§5).

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "cpu/core.hpp"
#include "hlp/request.hpp"
#include "llp/endpoint.hpp"
#include "llp/worker.hpp"
#include "sim/task.hpp"

namespace bb::hlp {

struct UcpConfig {
  /// Messages of at least this size use the rendezvous protocol
  /// (RTS -> CTS -> one-sided data put -> FIN) instead of the eager
  /// inline path; the payload crosses the wire exactly once, at the cost
  /// of an extra control round trip. UCX-like default.
  std::uint32_t rndv_threshold = 1024;
};

class UcpWorker {
 public:
  /// The worker claims `uct_worker`'s RX handler: every RX completion of
  /// the node is matched here, against the sending peer's state.
  explicit UcpWorker(llp::Worker& uct_worker, UcpConfig cfg = {});
  UcpWorker(const UcpWorker&) = delete;
  UcpWorker& operator=(const UcpWorker&) = delete;

  /// ucp_ep_create: sends to `endpoint.peer_node()` go through `endpoint`,
  /// and messages from that node match against its receives. One
  /// endpoint per peer; every endpoint sends from the same node.
  void connect(llp::Endpoint& endpoint);
  /// The only connected peer (a two-node stack's).
  int sole_peer() const;

  cpu::Core& core() { return uct_worker_.core(); }
  prof::Profiler& profiler() { return uct_worker_.profiler(); }

  /// Registered upper-layer callback for completed receives (MPICH's).
  /// Runs after the UCP callback, inside progress.
  void set_upper_rx_callback(std::function<void(Request*)> cb) {
    upper_rx_cb_ = std::move(cb);
  }

  /// ucp_tag_send_nb to `peer`: consumes the UCP initiation cost, then
  /// executes the LLP post (or pends the request on a busy post). Returns
  /// the tracking request; initiation itself cannot fail (busy posts
  /// pend), so the Expected is the unified convention, not a present
  /// error path.
  sim::Task<common::Expected<Request*>> tag_send_nb(int peer,
                                                    std::uint32_t bytes);

  /// ucp_tag_recv_nb from `peer`: posts a receive into that peer's
  /// matching queue. Costless relative to the paper's model (receive
  /// initiation is assumed to overlap, §6); matching costs are charged
  /// at completion time.
  common::Expected<Request*> tag_recv_nb(int peer, std::uint32_t bytes);

  /// Takes back a request a wait returned complete. The next
  /// tag_send_nb/tag_recv_nb may reuse its storage, so it stays readable
  /// until then; releasing it again before that does nothing.
  void release(Request* req);

  /// ucp_worker_progress: one pass. Retries every peer's pending sends,
  /// drives uct_worker_progress (completion callbacks run inside), then
  /// every peer's rendezvous control and data; peers go in rank order.
  /// Returns the number of UCT completions processed. `idle` (a blocking
  /// wait loop's description) lets an empty pass park the loop; a pass
  /// measured at prof::Site::kUcpWorkerProgress never parks.
  sim::Task<std::uint32_t> progress(const llp::IdleLoop* idle = nullptr);
  /// What one empty progress pass costs, in draw order: the UCP pass
  /// plus the empty UCT poll (the IdleLoop cost list of a wait loop).
  static std::array<const cpu::CostSpec*, 2> empty_pass_costs(
      const cpu::Core& c) {
    return {&c.costs().ucp_progress_iter, &c.costs().llp_empty_progress};
  }

  /// Whether any peer has queued work (busy-post retries, rendezvous
  /// control or data) that the next progress pass drives. O(1): a
  /// parked wait loop asks it on every wake.
  bool has_pending_work() const { return queued_ != 0; }

  std::size_t pending_sends() const;
  std::uint64_t sends_completed() const { return sends_completed_; }
  std::uint64_t recvs_completed() const { return recvs_completed_; }
  std::uint64_t rndv_sends() const { return rndv_sends_; }

 private:
  // Control headers ride in the messages' immediate data. Layout:
  // ctrl(2)@62 | src(30)@32 | seq(32)@0, where src is the sending node
  // and seq numbers a rendezvous operation toward one peer.
  enum class Ctrl : std::uint64_t { kEager = 0, kRts = 1, kCts = 2, kFin = 3 };
  std::uint64_t header(Ctrl c, std::uint64_t seq) const {
    return (static_cast<std::uint64_t>(c) << 62) |
           (static_cast<std::uint64_t>(node_) << 32) | (seq & 0xFFFFFFFFull);
  }
  static Ctrl ctrl_of(std::uint64_t h) { return static_cast<Ctrl>(h >> 62); }
  static int src_of(std::uint64_t h) {
    return static_cast<int>((h >> 32) & 0x3FFFFFFFull);
  }
  static std::uint64_t seq_of(std::uint64_t h) { return h & 0xFFFFFFFFull; }

  struct RndvData {
    std::uint64_t seq;
    std::uint32_t bytes;
    Request* req;
    bool data_sent = false;
  };
  /// The protocol state toward one connected peer.
  struct Peer {
    Peer(int r, llp::Endpoint& ep) : rank(r), endpoint(ep) {}

    int rank;
    llp::Endpoint& endpoint;
    std::deque<Request*> pending_sends;
    std::deque<Request*> posted_recvs;
    std::deque<nic::Cqe> unexpected;  // eager + RTS with no recv, in order
    // Rendezvous state.
    std::deque<std::uint64_t> pending_ctrl;            // headers to send
    std::map<std::uint64_t, Request*> rndv_tx_waiting; // RTS out, await CTS
    std::deque<RndvData> rndv_tx_ready;                // CTS in: put + FIN
    std::map<std::uint64_t, Request*> rndv_rx_waiting; // CTS out, await FIN
    std::uint64_t next_rndv_seq = 1;

    bool has_rndv_work() const {
      return !pending_ctrl.empty() || !rndv_tx_ready.empty();
    }
  };
  Peer& peer(int rank);

  void on_rx_completion(const nic::Cqe& cqe);
  sim::Task<common::Status> try_post(Peer& p, Request* req);
  /// Completes a receive through the registered callback chain,
  /// propagating the transport status into the request.
  void complete_recv(Request* req,
                     common::Status st = common::Status::kOk);
  /// Matches receive `req` to `cqe` from `p`: an eager message completes
  /// it, an RTS is answered with a CTS.
  void match(Peer& p, const nic::Cqe& cqe, Request* req);
  /// Drives `p`'s queued control messages and rendezvous data transfers.
  sim::Task<void> progress_rndv(Peer& p);

  llp::Worker& uct_worker_;
  UcpConfig cfg_;
  int node_ = -1;  // the sending node, learned from the first endpoint
  std::function<void(Request*)> upper_rx_cb_;

  // Appending to a deque never moves its elements, so Request* stay valid.
  std::deque<Request> requests_;
  // Released requests, reused last-in first-out.
  std::vector<Request*> free_requests_;
  // Connected peers in rank order, and the same records by rank.
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<Peer*> by_rank_;

  // Entries in every peer's pending_sends, pending_ctrl and
  // rndv_tx_ready together.
  std::size_t queued_ = 0;

  std::uint64_t next_seq_ = 1;
  std::uint64_t sends_completed_ = 0;
  std::uint64_t recvs_completed_ = 0;
  std::uint64_t rndv_sends_ = 0;

  Request* new_request(Request::Kind kind, std::uint32_t bytes);
};

}  // namespace bb::hlp
