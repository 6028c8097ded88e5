#include "core/timestamp_vector.h"

#include <algorithm>
#include <cassert>

namespace mdts {

TimestampVector::TimestampVector(size_t k) : k_(static_cast<uint32_t>(k)) {
  assert(k > 0);
  TsElement* d;
  if (k_ <= kInlineCapacity) {
    d = inline_;
    for (size_t m = 0; m < kInlineCapacity; ++m) d[m] = kUndefinedElement;
  } else {
    d = heap_ = new TsElement[k_];
    for (size_t m = 0; m < k_; ++m) d[m] = kUndefinedElement;
  }
}

TimestampVector::TimestampVector(const TimestampVector& o)
    : k_(o.k_) {
  if (k_ <= kInlineCapacity) {
    std::copy(o.inline_, o.inline_ + kInlineCapacity, inline_);
  } else {
    heap_ = new TsElement[k_];
    std::copy(o.heap_, o.heap_ + k_, heap_);
  }
}

TimestampVector::TimestampVector(TimestampVector&& o) noexcept
    : k_(o.k_) {
  if (k_ <= kInlineCapacity) {
    std::copy(o.inline_, o.inline_ + kInlineCapacity, inline_);
  } else {
    heap_ = o.heap_;
    o.heap_ = nullptr;  // Moved-from keeps k_; its dtor deletes nullptr.
  }
}

TimestampVector& TimestampVector::operator=(const TimestampVector& o) {
  if (this == &o) return *this;
  if (k_ > kInlineCapacity) delete[] heap_;
  k_ = o.k_;
  if (k_ <= kInlineCapacity) {
    std::copy(o.inline_, o.inline_ + kInlineCapacity, inline_);
  } else {
    heap_ = new TsElement[k_];
    std::copy(o.heap_, o.heap_ + k_, heap_);
  }
  return *this;
}

TimestampVector& TimestampVector::operator=(TimestampVector&& o) noexcept {
  if (this == &o) return *this;
  if (k_ > kInlineCapacity) delete[] heap_;
  k_ = o.k_;
  if (k_ <= kInlineCapacity) {
    std::copy(o.inline_, o.inline_ + kInlineCapacity, inline_);
  } else {
    heap_ = o.heap_;
    o.heap_ = nullptr;
  }
  return *this;
}

TimestampVector TimestampVector::Virtual(size_t k) {
  TimestampVector v(k);
  v.Set(0, 0);
  return v;
}

size_t TimestampVector::DefinedPrefixLength() const {
  const TsElement* d = data();
  size_t n = 0;
  while (n < k_ && d[n] != kUndefinedElement) ++n;
  return n;
}

size_t TimestampVector::DefinedCount() const {
  const TsElement* d = data();
  size_t n = 0;
  for (size_t m = 0; m < k_; ++m) n += d[m] != kUndefinedElement;
  return n;
}

void TimestampVector::Reset() {
  TsElement* d = data();
  for (size_t m = 0; m < k_; ++m) d[m] = kUndefinedElement;
}

std::string TimestampVector::ToString() const {
  std::string out = "<";
  for (size_t i = 0; i < k_; ++i) {
    if (i > 0) out += ',';
    if (!IsDefined(i)) {
      out += '*';
    } else {
      out += std::to_string(Get(i));
    }
  }
  out += '>';
  return out;
}

VectorCompareResult CompareNaive(const TimestampVector& a,
                                 const TimestampVector& b) {
  assert(a.size() == b.size());
  const size_t k = a.size();
  for (size_t m = 0; m < k; ++m) {
    const bool da = a.IsDefined(m);
    const bool db = b.IsDefined(m);
    if (da && db) {
      if (a.Get(m) < b.Get(m)) return {VectorOrder::kLess, m};
      if (a.Get(m) > b.Get(m)) return {VectorOrder::kGreater, m};
      continue;  // Equal defined elements: keep scanning.
    }
    if (!da && !db) return {VectorOrder::kEqual, m};
    return {VectorOrder::kUndetermined, m};
  }
  return {VectorOrder::kIdentical, k};
}

const char* VectorOrderName(VectorOrder order) {
  switch (order) {
    case VectorOrder::kLess:
      return "LESS";
    case VectorOrder::kGreater:
      return "GREATER";
    case VectorOrder::kEqual:
      return "EQUAL";
    case VectorOrder::kUndetermined:
      return "UNDETERMINED";
    case VectorOrder::kIdentical:
      return "IDENTICAL";
  }
  return "?";
}

}  // namespace mdts
