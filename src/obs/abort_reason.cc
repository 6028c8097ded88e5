#include "obs/abort_reason.h"

namespace mdts {

const char* AbortReasonName(AbortReason reason) {
  switch (reason) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kLexOrder:
      return "lex_order";
    case AbortReason::kEncodingExhausted:
      return "encoding_exhausted";
    case AbortReason::kStaleTxn:
      return "stale_txn";
    case AbortReason::kInvalidOp:
      return "invalid_op";
    case AbortReason::kDeadlockAvoidance:
      return "deadlock_avoidance";
    case AbortReason::kValidationFailure:
      return "validation_failure";
    case AbortReason::kLockTimeout:
      return "lock_timeout";
    case AbortReason::kLeaseExpired:
      return "lease_expired";
    case AbortReason::kDownSite:
      return "down_site";
    case AbortReason::kFaultInjected:
      return "fault_injected";
    case AbortReason::kRetryCapExhausted:
      return "retry_cap_exhausted";
    case AbortReason::kVersionConflict:
      return "version_conflict";
    case AbortReason::kNumReasons:
      break;
  }
  return "?";
}

const char* AbortReasonDescription(AbortReason reason) {
  switch (reason) {
    case AbortReason::kNone:
      return "not rejected";
    case AbortReason::kLexOrder:
      return "the opposite serialization order is already fixed";
    case AbortReason::kEncodingExhausted:
      return "no room left to encode the dependency";
    case AbortReason::kStaleTxn:
      return "operation from a dead transaction incarnation";
    case AbortReason::kInvalidOp:
      return "malformed operation";
    case AbortReason::kDeadlockAvoidance:
      return "granting the lock would close a waits-for cycle";
    case AbortReason::kValidationFailure:
      return "a concurrent committer wrote an item in the read set";
    case AbortReason::kLockTimeout:
      return "lock request retries exhausted without an answer";
    case AbortReason::kLeaseExpired:
      return "a held lock's lease expired; mutual exclusion lost";
    case AbortReason::kDownSite:
      return "a required site is crashed or unreachable";
    case AbortReason::kFaultInjected:
      return "abort forced by the fault injector";
    case AbortReason::kRetryCapExhausted:
      return "attempt cap reached; the transaction gave up";
    case AbortReason::kVersionConflict:
      return "no feasible version-chain slot for the write";
    case AbortReason::kNumReasons:
      break;
  }
  return "?";
}

std::string FormatReject(const std::string& op_name, AbortReason reason,
                         uint32_t blocker) {
  std::string out = op_name;
  out += " rejected: ";
  out += AbortReasonName(reason);
  out += " (";
  out += AbortReasonDescription(reason);
  if (blocker != 0) {
    out += "; blocker T";
    out += std::to_string(blocker);
  }
  out += ")";
  return out;
}

std::string AbortReasonCounts::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (size_t r = 0; r < kNumAbortReasons; ++r) {
    if (counts[r] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += AbortReasonName(static_cast<AbortReason>(r));
    out += "\": ";
    out += std::to_string(counts[r]);
  }
  out += "}";
  return out;
}

}  // namespace mdts
