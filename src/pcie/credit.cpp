#include "pcie/credit.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bb::pcie {

std::string to_string(DllpType t) {
  switch (t) {
    case DllpType::kAck:
      return "Ack";
    case DllpType::kNak:
      return "Nak";
    case DllpType::kUpdateFC:
      return "UpdateFC";
  }
  BB_UNREACHABLE("bad DllpType");
}

std::string to_string(CreditClass c) {
  switch (c) {
    case CreditClass::kPosted:
      return "P";
    case CreditClass::kNonPosted:
      return "NP";
    case CreditClass::kCompletion:
      return "CPL";
  }
  BB_UNREACHABLE("bad CreditClass");
}

CreditState CreditState::default_endpoint() {
  // Generous budgets typical of a x8 port: 64 posted headers with 1024
  // data units (16 KiB), 32 non-posted headers, 64 completion headers.
  return with_budget({64, 1024}, {32, 32}, {64, 1024});
}

CreditState CreditState::with_budget(CreditBudget posted,
                                     CreditBudget non_posted,
                                     CreditBudget completion) {
  CreditState s;
  s.cls(CreditClass::kPosted).limit = posted;
  s.cls(CreditClass::kPosted).available_ = posted;
  s.cls(CreditClass::kNonPosted).limit = non_posted;
  s.cls(CreditClass::kNonPosted).available_ = non_posted;
  s.cls(CreditClass::kCompletion).limit = completion;
  s.cls(CreditClass::kCompletion).available_ = completion;
  return s;
}

CreditClass CreditState::class_of(const Tlp& tlp) {
  switch (tlp.type) {
    case TlpType::kMemWrite:
      return CreditClass::kPosted;
    case TlpType::kMemRead:
      return CreditClass::kNonPosted;
    case TlpType::kCompletionData:
      return CreditClass::kCompletion;
  }
  BB_UNREACHABLE("bad TlpType");
}

bool CreditState::can_send(const Tlp& tlp) const {
  const PerClass& c = cls(class_of(tlp));
  return c.available_.header >= 1 && c.available_.data >= data_credit_units(tlp);
}

void CreditState::consume(const Tlp& tlp) {
  PerClass& c = cls(class_of(tlp));
  BB_ASSERT_MSG(can_send(tlp), "credit consume without availability");
  c.available_.header -= 1;
  c.available_.data -= data_credit_units(tlp);
  c.consumed_headers += 1;
}

void CreditState::replenish(const Dllp& update) {
  BB_ASSERT(update.type == DllpType::kUpdateFC);
  PerClass& c = cls(update.credit_class);
  // Replenish only what exceeds the totals already seen, so duplicate,
  // stale and re-emitted UpdateFCs are no-ops.
  const auto dh = static_cast<std::uint32_t>(
      update.header_total - std::min(update.header_total, c.seen_header_total));
  const auto dd = static_cast<std::uint32_t>(
      update.data_total - std::min(update.data_total, c.seen_data_total));
  c.seen_header_total = std::max(c.seen_header_total, update.header_total);
  c.seen_data_total = std::max(c.seen_data_total, update.data_total);
  c.available_.header += dh;
  c.available_.data += dd;
  c.replenished_headers += dh;
  BB_ASSERT_MSG(c.available_.header <= c.limit.header &&
                    c.available_.data <= c.limit.data,
                "credit replenish exceeded advertised budget");
}

CreditBudget CreditState::available(CreditClass c) const {
  return cls(c).available_;
}

std::int64_t CreditState::outstanding_headers(CreditClass c) const {
  return cls(c).consumed_headers - cls(c).replenished_headers;
}

Dllp CreditLedger::release_for(const Tlp& tlp) {
  Dllp d;
  d.type = DllpType::kUpdateFC;
  d.credit_class = CreditState::class_of(tlp);
  Totals& t = totals_[static_cast<int>(d.credit_class)];
  t.header += 1;
  t.data += data_credit_units(tlp);
  d.header_total = t.header;
  d.data_total = t.data;
  return d;
}

}  // namespace bb::pcie
