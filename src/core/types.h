#ifndef MDTS_CORE_TYPES_H_
#define MDTS_CORE_TYPES_H_

#include <cstdint>
#include <string>

namespace mdts {

/// Transaction identifier. Id 0 is reserved for the paper's virtual
/// transaction T0, which "reads and writes all the data items before any
/// other transaction" (Section III-A); user transactions are numbered 1..n.
using TxnId = uint32_t;

/// Database item identifier. Items are dense integers 0..m-1; the textual
/// log format prints them as letters (x, y, z, w, then i4, i5, ...).
using ItemId = uint32_t;

constexpr TxnId kVirtualTxn = 0;

/// Atomic operation kind. Per paper Definition 1, two operations conflict iff
/// they belong to different transactions, access the same item, and at least
/// one is a write.
enum class OpType : uint8_t { kRead, kWrite };

/// A single atomic operation A_i[x]: transaction `txn` reads or writes item
/// `item`. The position of the operation in a Log is the paper's permutation
/// function pi.
struct Op {
  TxnId txn = 0;
  OpType type = OpType::kRead;
  ItemId item = 0;

  friend bool operator==(const Op& a, const Op& b) {
    return a.txn == b.txn && a.type == b.type && a.item == b.item;
  }
};

/// Decision of the scheduler for one incoming operation.
enum class OpDecision {
  kAccept,  // Operation executes.
  kReject,  // Operation refused; the issuing transaction must abort.
  kIgnore,  // Thomas-write-rule case: the write is skipped but the
            // transaction continues (Section III-D-6c).
};

const char* OpDecisionName(OpDecision d);

/// True iff the two operations conflict (Definition 1).
inline bool Conflicts(const Op& a, const Op& b) {
  return a.txn != b.txn && a.item == b.item &&
         (a.type == OpType::kWrite || b.type == OpType::kWrite);
}

/// Renders an item id in the paper's style: 0->x, 1->y, 2->z, 3->w, then i4..
std::string ItemName(ItemId item);

/// Renders an operation as e.g. "W1[x]".
std::string OpName(const Op& op);

}  // namespace mdts

#endif  // MDTS_CORE_TYPES_H_
