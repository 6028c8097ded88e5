#ifndef MDTS_FAULT_FAULT_H_
#define MDTS_FAULT_FAULT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace mdts {

/// One scheduled whole-site failure. At `crash_time` the site loses its
/// volatile state (lock table, queued lock requests, in-flight work);
/// messages to or from the site are lost while it is down. At
/// `recover_time` the site rejoins with its durable state (item records,
/// timestamp vectors) intact and its counters rebuilt through the
/// resynchronization path.
struct SiteCrash {
  uint32_t site = 0;
  double crash_time = 0.0;
  /// Simulated time the site comes back; infinity = stays down forever.
  double recover_time = std::numeric_limits<double>::infinity();
};

/// Declarative, seeded description of the faults injected into one run.
/// Message-level faults apply to inter-site messages only - a site's local
/// calls do not traverse the network. Crashes follow a fixed schedule so
/// that every faulty run is exactly reproducible from (plan, seed).
struct FaultPlan {
  double drop_rate = 0.0;       ///< P(an inter-site message is lost).
  double duplicate_rate = 0.0;  ///< P(an inter-site message arrives twice).
  double jitter = 0.0;          ///< Mean of exponential extra delay / copy.
  std::vector<SiteCrash> crashes;

  bool any_faults() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || jitter > 0.0 ||
           !crashes.empty();
  }
};

/// Process-crash points for the parallel WAL (src/wal): where, relative
/// to the append -> write -> fdatasync pipeline, the process dies. The
/// WAL realizes the crash by refusing further appends and truncating each
/// stream file to the bytes a real crash at that point would have left.
enum class WalCrashPoint : uint8_t {
  kNone = 0,
  /// Die with records buffered / written but not yet fsynced: every
  /// unsynced byte is lost and the image is the last synced prefix.
  kBeforeFsync,
  /// Die partway through writing a record frame: the image ends in a torn
  /// partial record that recovery must detect (CRC / length) and truncate.
  kMidRecord,
  /// Die after one stream's group-commit fsync completed but before the
  /// peer streams synced theirs: the streams diverge and recovery must
  /// merge unequal prefixes.
  kBetweenStreams,
};

/// Stable identifier ("before_fsync", "mid_record", "between_streams").
const char* WalCrashPointName(WalCrashPoint point);

/// Declarative process-crash schedule for one WAL run: the `at_append`-th
/// append (1-based, counted across all streams) triggers `point`.
struct WalCrashPlan {
  WalCrashPoint point = WalCrashPoint::kNone;
  uint64_t at_append = 0;
  /// kMidRecord: frame bytes that reach the disk image before the tear
  /// (clamped by the WAL to [1, frame size - 1]).
  uint64_t torn_bytes = 6;

  bool armed() const {
    return point != WalCrashPoint::kNone && at_append > 0;
  }
};

/// Seeded message-fate oracle. Owns its own Rng so that enabling fault
/// injection cannot perturb the simulation's workload / think-time
/// randomness, and a plan with all rates zero consumes no randomness at
/// all: a clean run is bit-identical with or without the injector.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, uint64_t seed);

  /// Decides the fate of one inter-site message with nominal one-way
  /// latency `base_latency`: returns the latency of each delivered copy.
  /// Empty = dropped; two entries = duplicated. Jitter is drawn fresh per
  /// copy, so duplicate copies arrive at distinct times.
  std::vector<double> Deliveries(double base_latency);

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  Rng rng_;
};

}  // namespace mdts

#endif  // MDTS_FAULT_FAULT_H_
