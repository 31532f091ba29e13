#pragma once
// Credit-based flow control (§2).
//
// A PCIe transmitter may issue a TLP only while it holds enough header and
// data credits for that TLP's class; credits are consumed on transmission
// and replenished by UpdateFC DLLPs from the neighbour. The paper observes
// that a single core never exhausts MWr credits -- our default budgets
// reproduce that -- but the mechanism is fully modelled so that
// small-budget configurations (tests, ablations) exhibit genuine stalls.

#include <array>
#include <cstdint>

#include "pcie/dllp.hpp"
#include "pcie/tlp.hpp"

namespace bb::pcie {

struct CreditBudget {
  std::uint32_t header = 0;
  std::uint32_t data = 0;  // 16-byte units
};

class CreditState {
 public:
  /// Typical budgets for a x8 endpoint port; far more than one core can
  /// consume (§4.2).
  static CreditState default_endpoint();
  static CreditState with_budget(CreditBudget posted, CreditBudget non_posted,
                                 CreditBudget completion);

  /// Whether `tlp` can be issued right now.
  bool can_send(const Tlp& tlp) const;
  /// Whether `tlp` can ever be issued: it needs no more credits than its
  /// class's advertised budget.
  bool fits(const Tlp& tlp) const {
    const PerClass& c = cls(class_of(tlp));
    return c.limit.header >= 1 && c.limit.data >= data_credit_units(tlp);
  }
  /// Consumes credits for `tlp`; caller must have checked can_send.
  void consume(const Tlp& tlp);
  /// Applies an UpdateFC replenishment. Its absolute released-credit
  /// counters (the real-PCIe scheme) make it idempotent: duplicates and
  /// stale re-emissions replenish only the delta beyond what was already
  /// seen.
  void replenish(const Dllp& update);

  /// Credits currently available for a class.
  CreditBudget available(CreditClass c) const;

  static CreditClass class_of(const Tlp& tlp);

  /// Total header credits consumed minus replenished (invariant checks).
  std::int64_t outstanding_headers(CreditClass c) const;

 private:
  struct PerClass {
    CreditBudget limit;      // advertised budget
    CreditBudget available_; // current credits
    std::int64_t consumed_headers = 0;
    std::int64_t replenished_headers = 0;
    /// Highest cumulative totals seen (cumulative UpdateFC dedup).
    std::uint64_t seen_header_total = 0;
    std::uint64_t seen_data_total = 0;
  };
  std::array<PerClass, 3> classes_{};

  PerClass& cls(CreditClass c) { return classes_[static_cast<int>(c)]; }
  const PerClass& cls(CreditClass c) const {
    return classes_[static_cast<int>(c)];
  }
};

/// The releasing side of the flow-control protocol: tracks the cumulative
/// credits a receiver has handed back since link-up and stamps each
/// UpdateFC with the absolute totals that make delivery idempotent.
/// pcie::Link owns one per direction, for that direction's receiver.
class CreditLedger {
 public:
  /// The UpdateFC releasing the credits `tlp` consumed.
  Dllp release_for(const Tlp& tlp);

  std::uint64_t header_total(CreditClass c) const {
    return totals_[static_cast<int>(c)].header;
  }

 private:
  struct Totals {
    std::uint64_t header = 0;
    std::uint64_t data = 0;
  };
  std::array<Totals, 3> totals_{};
};

}  // namespace bb::pcie
