// Cumulative (absolute-counter) flow control: the property that makes
// UpdateFC re-emission after a loss safe. Duplicates and stale repeats
// must replenish nothing; only genuinely new totals count.

#include <gtest/gtest.h>

#include "pcie/credit.hpp"

namespace bb::pcie {
namespace {

Tlp mwr(std::uint32_t bytes) {
  Tlp t;
  t.type = TlpType::kMemWrite;
  t.bytes = bytes;
  return t;
}

TEST(CumulativeCredits, LedgerStampsAbsoluteTotals) {
  CreditLedger ledger;
  const Dllp fc1 = ledger.release_for(mwr(64));
  const Dllp fc2 = ledger.release_for(mwr(64));
  EXPECT_EQ(fc1.header_total, 1u);
  EXPECT_EQ(fc2.header_total, 2u);
  EXPECT_EQ(fc2.data_total, fc1.data_total * 2);
  EXPECT_EQ(ledger.header_total(CreditClass::kPosted), 2u);
}

TEST(CumulativeCredits, DuplicateReplenishIsIdempotent) {
  CreditState cs = CreditState::default_endpoint();
  CreditLedger ledger;

  const Tlp t = mwr(64);
  cs.consume(t);
  const CreditBudget drained = cs.available(CreditClass::kPosted);
  const Dllp fc = ledger.release_for(t);

  cs.replenish(fc);
  const CreditBudget full = cs.available(CreditClass::kPosted);
  EXPECT_EQ(full.header, drained.header + 1);

  // Re-emitted duplicate: must not overflow the advertised budget (the
  // non-cumulative scheme would trip the replenish assert here).
  cs.replenish(fc);
  EXPECT_EQ(cs.available(CreditClass::kPosted).header, full.header);
  EXPECT_EQ(cs.available(CreditClass::kPosted).data, full.data);
}

TEST(CumulativeCredits, StaleReemissionAfterNewerTotalIsNoop) {
  CreditState cs = CreditState::default_endpoint();
  CreditLedger ledger;

  const Tlp a = mwr(64);
  const Tlp b = mwr(64);
  cs.consume(a);
  cs.consume(b);
  const Dllp fc_a = ledger.release_for(a);  // totals: 1
  const Dllp fc_b = ledger.release_for(b);  // totals: 2

  // The newer UpdateFC arrives first (the older one was dropped and
  // re-emitted later): it replenishes both TLPs' worth of credits...
  cs.replenish(fc_b);
  const CreditBudget after = cs.available(CreditClass::kPosted);
  // ...and the late, stale re-emission adds nothing.
  cs.replenish(fc_a);
  EXPECT_EQ(cs.available(CreditClass::kPosted).header, after.header);
  EXPECT_EQ(cs.available(CreditClass::kPosted).data, after.data);
}

}  // namespace
}  // namespace bb::pcie
