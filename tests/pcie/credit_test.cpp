#include "pcie/credit.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace bb::pcie {
namespace {

Tlp mwr(std::uint32_t bytes) {
  Tlp t;
  t.type = TlpType::kMemWrite;
  t.bytes = bytes;
  return t;
}

Tlp mrd() {
  Tlp t;
  t.type = TlpType::kMemRead;
  t.bytes = 0;
  return t;
}

TEST(Credit, ClassOfMapsTlpTypes) {
  EXPECT_EQ(CreditState::class_of(mwr(64)), CreditClass::kPosted);
  EXPECT_EQ(CreditState::class_of(mrd()), CreditClass::kNonPosted);
  Tlp cpl;
  cpl.type = TlpType::kCompletionData;
  EXPECT_EQ(CreditState::class_of(cpl), CreditClass::kCompletion);
}

TEST(Credit, DataCreditUnitsRoundUp) {
  EXPECT_EQ(data_credit_units(mwr(64)), 4u);
  EXPECT_EQ(data_credit_units(mwr(8)), 1u);
  EXPECT_EQ(data_credit_units(mwr(65)), 5u);
  EXPECT_EQ(data_credit_units(mrd()), 0u);  // MRd carries no data
}

TEST(Credit, ConsumeDecrementsAvailability) {
  auto s = CreditState::with_budget({4, 16}, {2, 2}, {4, 16});
  EXPECT_TRUE(s.can_send(mwr(64)));
  s.consume(mwr(64));
  const auto avail = s.available(CreditClass::kPosted);
  EXPECT_EQ(avail.header, 3u);
  EXPECT_EQ(avail.data, 12u);
}

TEST(Credit, ExhaustionBlocksSending) {
  auto s = CreditState::with_budget({2, 8}, {1, 1}, {1, 4});
  s.consume(mwr(64));
  s.consume(mwr(64));
  EXPECT_FALSE(s.can_send(mwr(64)));  // headers gone
}

TEST(Credit, DataCreditsCanBeTheBinder) {
  auto s = CreditState::with_budget({8, 4}, {1, 1}, {1, 4});
  s.consume(mwr(64));  // 4 data units consumed
  EXPECT_FALSE(s.can_send(mwr(16)));  // headers remain, data exhausted
}

TEST(Credit, ReplenishRestoresAndRespectsBudget) {
  auto s = CreditState::with_budget({2, 8}, {1, 1}, {1, 4});
  CreditLedger ledger;
  const Tlp t = mwr(64);
  s.consume(t);
  s.consume(t);
  EXPECT_EQ(s.outstanding_headers(CreditClass::kPosted), 2);
  EXPECT_FALSE(s.can_send(t));
  s.replenish(ledger.release_for(t));
  EXPECT_EQ(s.outstanding_headers(CreditClass::kPosted), 1);
  EXPECT_TRUE(s.can_send(t));
  s.replenish(ledger.release_for(t));
  EXPECT_EQ(s.outstanding_headers(CreditClass::kPosted), 0);
  EXPECT_EQ(s.available(CreditClass::kPosted).header, 2u);
  EXPECT_EQ(s.available(CreditClass::kPosted).data, 8u);
}

TEST(Credit, ReleaseForMatchesConsumption) {
  const Tlp t = mwr(40);
  CreditLedger ledger;
  const Dllp d = ledger.release_for(t);
  EXPECT_EQ(d.type, DllpType::kUpdateFC);
  EXPECT_EQ(d.credit_class, CreditClass::kPosted);
  EXPECT_EQ(d.header_total, 1u);
  EXPECT_EQ(d.data_total, data_credit_units(t));
  // A sender that consumed exactly `t` is made whole by it.
  auto s = CreditState::with_budget({1, 3}, {1, 1}, {1, 4});
  s.consume(t);
  s.replenish(d);
  EXPECT_EQ(s.available(CreditClass::kPosted).header, 1u);
  EXPECT_EQ(s.available(CreditClass::kPosted).data, 3u);
}

TEST(Credit, DefaultEndpointNeverExhaustedBySingleCoreBurst) {
  // §4.2: "a single core does not exhaust the credits for MWr
  // transactions" -- with UpdateFCs flowing, 64 posted headers cover the
  // handful of in-flight 64 B writes a single core can sustain.
  auto s = CreditState::default_endpoint();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(s.can_send(mwr(64)));
    s.consume(mwr(64));
  }
  EXPECT_TRUE(s.can_send(mwr(64)));
}

TEST(Credit, DefaultEndpointBudgets) {
  const auto s = CreditState::default_endpoint();
  const CreditBudget p = s.available(CreditClass::kPosted);
  const CreditBudget np = s.available(CreditClass::kNonPosted);
  const CreditBudget cpl = s.available(CreditClass::kCompletion);
  EXPECT_EQ(std::pair(p.header, p.data), std::pair(64u, 1024u));
  EXPECT_EQ(std::pair(np.header, np.data), std::pair(32u, 32u));
  EXPECT_EQ(std::pair(cpl.header, cpl.data), std::pair(64u, 1024u));
  // 1024 data units of 16 B: a 16 KiB write fits, one unit more never does.
  EXPECT_TRUE(s.can_send(mwr(16384)));
  EXPECT_FALSE(s.can_send(mwr(16392)));
  EXPECT_TRUE(s.fits(mwr(16384)));
  EXPECT_FALSE(s.fits(mwr(16392)));
}

TEST(Credit, IndependentClasses) {
  auto s = CreditState::with_budget({1, 4}, {1, 1}, {1, 4});
  s.consume(mwr(64));
  EXPECT_FALSE(s.can_send(mwr(8)));
  EXPECT_TRUE(s.can_send(mrd()));  // non-posted pool untouched
}

}  // namespace
}  // namespace bb::pcie
