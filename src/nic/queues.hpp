#pragma once
// Host-memory structures of the HW/SW interface (§2): completion-queue
// rings written by the NIC through the Root Complex and polled by CPU
// loads, plus the host-side descriptor ring the NIC DMA-reads on the
// non-PIO path.
//
// Visibility semantics: the RC commits each DMA write at an absolute
// simulated time; a CPU poll at core-local time `now` observes an entry
// only if `visible_at <= now`. This is what makes LLP_prog's read of the
// designated memory location behave like the real machine.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "pcie/root_complex.hpp"
#include "pcie/tlp.hpp"
#include "sim/simulator.hpp"

namespace bb::nic {

/// One completion-queue entry as visible to the CPU.
struct Cqe {
  std::uint64_t msg_id = 0;
  /// Number of operations this entry retires (unsignalled moderation).
  std::uint32_t completes = 1;
  /// Immediate data carried by the message (RX completions only).
  std::uint64_t user_data = 0;
  /// Payload size delivered (RX completions only).
  std::uint32_t bytes = 0;
  TimePs visible_at;
  /// kIoError marks a completion-with-error (§fault model): the retired
  /// operation(s) failed after the link exhausted its recovery budget.
  /// (Last so pre-fault aggregate initializers stay valid.)
  common::Status status = common::Status::kOk;
};

/// A CQ ring in host memory. A deque, not the engine's sim::detail::Ring:
/// a CQ nobody polls (the RX CQ of a node that only receives puts into
/// it for a whole run) would double a ring to its backlog, and the ring
/// type's thread-local cache would keep that buffer for the next run.
class CqRing {
 public:
  void push(Cqe e) {
    entries_.push_back(e);
    ++total_pushed_;
    if (present_ != nullptr) ++*present_;
  }

  /// Dequeues the oldest entry visible at `now`, if any.
  std::optional<Cqe> poll(TimePs now);
  /// Keeps `*counter` equal to the sum of depth() over every ring that
  /// shares it (HostMemory's TX-CQE count).
  void count_into(std::size_t* counter) { present_ = counter; }
  /// Entries currently visible at `now` (without dequeuing).
  std::size_t visible_count(TimePs now) const;
  /// Entries present regardless of visibility.
  std::size_t depth() const { return entries_.size(); }
  std::uint64_t total_pushed() const { return total_pushed_; }

 private:
  std::deque<Cqe> entries_;
  std::uint64_t total_pushed_ = 0;
  std::size_t* present_ = nullptr;
};

/// The host-memory image of one node: CQ rings, the staged-descriptor ring
/// for the DMA descriptor path, and payload-delivery accounting. Serves as
/// the RC's memory sink and DMA-read provider.
class HostMemory {
 public:
  HostMemory() {
    parked_.reserve(4);
    noticed_.reserve(4);
  }
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  /// The TX CQ of `qp`, created on first use. The reference is stable
  /// (map nodes never move), so endpoints cache it.
  CqRing& tx_cq(std::uint32_t qp) {
    auto [it, created] = tx_cqs_.try_emplace(qp);
    if (created) it->second.count_into(&tx_cqes_present_);
    return it->second;
  }
  CqRing& rx_cq() { return rx_cq_; }
  /// TX completion entries present across every TX CQ: zero lets a
  /// progress pass skip its walk over the endpoints' rings.
  std::size_t tx_cqes_present() const { return tx_cqes_present_; }

  /// Root Complex notice, given when a DMA write into this memory is
  /// scheduled (at TLP arrival, before its commit is queued). Every
  /// parked poller replays the passes that cannot see the write and may
  /// stay parked through the first pass after the notice, which comes
  /// up empty (sim::Parked::notice); it rejoins the waiters at that
  /// pass's place. Only the commit changes what an idle poller finds;
  /// the notice makes every pass still parked at the commit one queued
  /// after the write arrived (docs/SIM_ENGINE.md "Parked waiters").
  void note_write_scheduled();
  /// Registers / removes a poller parked until the next write notice or
  /// commit.
  void park(sim::Parked* p) {
    settle_noticed();
    parked_.push_back(p);
  }
  void unpark(sim::Parked* p);

  /// Node-wide unique message ids (several workers/cores on one node
  /// share the NIC, whose in-flight tracking is keyed by msg_id).
  std::uint64_t alloc_msg_id() { return next_msg_id_++; }

  /// Invoked after every committed DMA write (at its visibility time) --
  /// the hook interrupt-driven completion (§2) hangs off.
  void set_commit_hook(std::function<void()> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Driver stages a descriptor in the host ring before ringing the
  /// DoorBell (non-PIO path, §2 step 0).
  void stage_descriptor(const pcie::WireMd& md) {
    staged_[md.qp].push_back(md);
  }
  std::size_t staged_count(std::uint32_t qp) const;
  /// Removes and returns the oldest staged descriptor on `qp` (fault
  /// recovery: a dead DoorBell/descriptor-fetch must not leave the ring
  /// out of sync with the NIC).
  std::optional<pcie::WireMd> take_staged(std::uint32_t qp);

  /// RC memory-sink entry point: a DMA write became visible. Parked
  /// pollers are woken once its entry is in place; a pass that starts
  /// exactly at the commit sees it.
  void commit_write(const pcie::Tlp& tlp, TimePs visible_at);
  /// RC read-provider entry point: a NIC DMA read is being served.
  pcie::ReadCompletion serve_read(const pcie::ReadRequest& req);

  std::uint64_t payload_bytes_delivered() const {
    return payload_bytes_delivered_;
  }
  std::uint64_t payload_writes() const { return payload_writes_; }

 private:
  /// A poller that stayed parked through a notice, until its pass.
  struct Noticed {
    sim::Parked* p;
    sim::PassPlace at;
  };
  void wake_parked(sim::Tie tie);
  /// Noticed pollers whose pass has run rejoin `parked_`, in the order
  /// of their passes: that pass came up empty and parked them again.
  void settle_noticed();

  std::map<std::uint32_t, CqRing> tx_cqs_;
  std::size_t tx_cqes_present_ = 0;
  CqRing rx_cq_;
  /// Parked pollers in the order they parked (woken last first).
  std::vector<sim::Parked*> parked_;
  /// Noticed pollers in the order of their passes' places.
  std::vector<Noticed> noticed_;
  std::map<std::uint32_t, std::deque<pcie::WireMd>> staged_;
  std::uint64_t next_msg_id_ = 1;
  std::function<void()> commit_hook_;
  std::uint64_t payload_bytes_delivered_ = 0;
  std::uint64_t payload_writes_ = 0;
};

}  // namespace bb::nic
