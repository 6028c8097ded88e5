#include "dist/dmt_system.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <queue>
#include <set>

#include "common/backoff.h"
#include "common/bench_clock.h"
#include "common/rng.h"
#include "core/access_history.h"
#include "core/types.h"
#include "core/vector_table.h"
#include "obs/trace.h"

namespace mdts {

namespace {

// Global lockable-object numbering: the predefined linear order of Section
// V-B. All item records precede all timestamp vectors, each ordered by id;
// since an operation must consult the item record first (to learn RT/WT)
// and vector ids are all larger, every context acquires locks in strictly
// ascending order and no deadlock can occur.
using ObjectId = uint64_t;

// Re-sends of one lock request before the operation is abandoned and its
// transaction aborts-and-retries.
constexpr uint32_t kMaxLockRetries = 6;

struct Event {
  double time = 0.0;
  uint64_t seq = 0;
  enum class Kind {
    kIssue,           // Transaction issues its next op (or commits).
    kRestart,         // Aborted transaction restarts.
    kLockArrive,      // Lock request arrives at the object's home site.
    kGrantArrive,     // Grant (with value) arrives back at the context.
    kReleaseArrive,   // Release (with writeback) arrives at the home site.
    kCounterSync,     // Periodic ucount/lcount synchronization.
    kRequestTimeout,  // Context-local timer: the expected grant is missing.
    kLeaseExpire,     // Home-site timer: the holder kept the lock too long.
    kSiteCrash,       // Scheduled whole-site failure (volatile state lost).
    kSiteRecover,     // Site rejoins; counters rebuilt via the sync path.
    kSample,          // Periodic sampler tick on simulated time.
  } kind = Kind::kIssue;
  TxnId txn = 0;
  uint64_t ctx = 0;
  ObjectId object = 0;
  // Lock generation (grants/releases/leases) or request epoch (timeouts);
  // doubles as the site id for kSiteCrash/kSiteRecover.
  uint64_t gen = 0;

  // Compact TraceContext, filled only on remote sends of a traced run:
  // send time, the sender transaction's open segment span (the hop's
  // parent), and how many positions of the transaction's MT(k) vector were
  // defined at send time. Definedness only grows within an incarnation
  // (Definition 6 refines the vector monotonically), which is the order
  // tools/critical_path.py re-audits over a transaction's hops. Zero for
  // local calls and untraced runs; never consulted by the protocol itself.
  double sent = 0.0;
  uint64_t parent_span = 0;
  uint8_t sent_defined = 0;

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct HeldLock {
  ObjectId object = 0;
  uint64_t generation = 0;  // Generation we were granted; stale if bumped.
};

struct OpContext {
  TxnId txn = 0;
  uint32_t incarnation = 0;  // Incarnation of `txn` that issued this op.
  Op op;
  uint32_t site = 0;           // Site executing the schedule (item's home).
  std::vector<ObjectId> lock_plan;  // Ascending; grows after item lock.
  size_t next_lock = 0;
  std::vector<HeldLock> held;  // Locks granted so far, with generations.
  uint32_t retries = 0;        // Re-sends of the current lock request.
  uint64_t request_epoch = 0;  // Bumped per (re)send; stales old timeouts.
  bool item_locked = false;
  bool dead = false;           // Abandoned: crash, timeout, lease loss.
  bool done = false;
};

struct LockState {
  bool held = false;
  uint64_t holder_ctx = 0;
  // Bumped on every grant and every reclaim/wipe, so grants, releases and
  // lease timers from a previous ownership are recognized as stale.
  uint64_t generation = 0;
  std::deque<uint64_t> waiters;
};

struct TxnRuntime {
  std::vector<Op> program;
  size_t next_op = 0;
  uint32_t attempts = 0;
  uint32_t incarnation = 0;
  uint32_t consecutive_aborts = 0;
  bool aborted = false;
  bool done = false;
  bool started = false;
  bool committed = false;
  double first_start = 0.0;
};

// Per-transaction tracer state: the currently open segment span plus the
// closed spans and per-class sums accumulated across the transaction's
// whole attempt chain (one root spans every incarnation). Reset to the
// default state when the finished path is extracted.
struct TxnTrace {
  uint64_t root = 0;      // Root span id; 0 = not started (or extracted).
  uint64_t seg_span = 0;  // Open segment span id; 0 = none open.
  DistSegment seg = DistSegment::kProcessing;
  uint32_t seg_site = 0;
  uint32_t seg_inc = 0;    // Incarnation at segment open.
  double seg_start = 0.0;  // Simulated open time.
  uint64_t seg_us[kNumDistSegments] = {};
  std::vector<DistSpan> spans;  // Kept only when a PathCollector is attached.
};

// Globally ordered record of accepted operations, filtered at the end to
// committed incarnations for the serializability audit.
struct ExecutedOp {
  Op op;
  uint32_t incarnation = 0;
};

struct ItemState {
  ReadHistory readers;    // RT(x) and line 10's old readers.
  AccessHistory writers;  // WT(x).
};

class DmtSim {
 public:
  explicit DmtSim(const DmtOptions& options)
      : options_(options),
        rng_(options.seed),
        injector_(options.fault, options.seed * 0x9E3779B97F4A7C15ULL + 0xC2),
        table_(options.k) {
    // Fault-tolerance knobs. On a clean run the timeout and the lease stay
    // disabled and the restart backoff stays flat, making the simulation
    // bit-identical to the fault-free event loop.
    double restart_mult = 1.0;
    if (options_.fault.any_faults()) {
      // Generous vs. one round trip plus jitter: spurious retries are only
      // wasted messages (requests are idempotent), but a tight timeout
      // thrashes under contention.
      timeout_ = 4.0 * (options_.message_latency + options_.fault.jitter) + 1.0;
      // Long enough for a normal multi-lock acquisition; a holder that is
      // slower than this aborts-and-retries, which is safe (the decision
      // is validated against lock generations before it is made).
      lease_ = 12.0 * std::max(timeout_, 1.0);
      // Backoff growth only pays off when outages make retries futile; on
      // a clean run a flat jittered delay keeps throughput (and matches
      // the closed-loop simulator's policy).
      restart_mult = 2.0;
    }
    retry_backoff_ = BackoffPolicy{timeout_, 2.0, 4.0 * timeout_};
    restart_backoff_ = BackoffPolicy{options_.restart_delay, restart_mult,
                                     8.0 * options_.restart_delay};
    registry_ = options_.metrics != nullptr ? options_.metrics
                                            : &GlobalMetrics();
    h_response_ = registry_->GetHistogram("dmt.response_time_us");
    h_backoff_ = registry_->GetHistogram("dmt.restart_backoff_us");
    g_consec_aborts_ = registry_->GetGauge("dmt.max_consecutive_aborts");
    tracing_ = options_.spans != nullptr || options_.paths != nullptr;
    trace_mask_ = options_.trace_sample_shift >= 32
                      ? ~uint64_t{0}
                      : (uint64_t{1} << options_.trace_sample_shift) - 1;
    if (tracing_) {
      for (size_t s = 0; s < kNumDistSegments; ++s) {
        const char* seg = DistSegmentName(static_cast<DistSegment>(s));
        h_path_[s] = registry_->GetHistogram(std::string("dmt.path.") + seg +
                                             "_us");
      }
    }
  }

  DmtResult Run();

 private:
  uint32_t ItemSite(ItemId x) const { return x % options_.num_sites; }
  uint32_t VectorSite(TxnId t) const { return t % options_.num_sites; }
  ObjectId ItemObject(ItemId x) const { return x; }
  ObjectId VectorObject(TxnId t) const {
    return static_cast<ObjectId>(num_items_) + t;
  }
  uint32_t ObjectSite(ObjectId o) const {
    return o < num_items_ ? ItemSite(static_cast<ItemId>(o))
                          : VectorSite(static_cast<TxnId>(o - num_items_));
  }

  const TimestampVector& Ts(TxnId t) { return table_.Ts(t); }

  ItemState& Item(ItemId x) {
    if (items_.size() <= x) items_.resize(x + 1);
    return items_[x];
  }

  /// The access-history probe: a transaction's runtime liveness.
  auto Probe() const {
    return [this](TxnId t) {
      const TxnRuntime& rt = txns_[t];
      return TxnLife<const TxnRuntime>{&rt, rt.incarnation, rt.aborted,
                                        rt.committed};
    };
  }

  /// A context that may still act: not abandoned, not finished, and its
  /// transaction's current incarnation is still the one that issued it.
  bool CtxActive(uint64_t ctx_id) const {
    const OpContext& ctx = contexts_[ctx_id];
    const TxnRuntime& rt = txns_[ctx.txn];
    return !ctx.dead && !ctx.done && !rt.done && !rt.aborted &&
           rt.incarnation == ctx.incarnation;
  }

  /// Simulated time in integer microseconds, the unit of the pid-2 trace
  /// lanes (one simulated time unit = 1 ms of trace time).
  uint64_t SimUs() const { return static_cast<uint64_t>(now_ * 1000.0); }

  /// Full scheduling decision for a context whose locks are all held.
  /// On false, `why` receives the classified cause.
  bool Decide(OpContext* ctx, AbortReason* why);

  void Push(double time, Event::Kind kind, TxnId txn, uint64_t ctx,
            ObjectId object, uint64_t gen = 0);
  void Send(uint32_t from, uint32_t to, Event::Kind kind, TxnId txn,
            uint64_t ctx, ObjectId object, uint64_t gen = 0);
  void StartNextTxn(double at);
  void IssueNext(TxnId txn, double at);
  void BeginLocking(uint64_t ctx_id);
  void RequestLock(uint64_t ctx_id, ObjectId object);
  void Grant(ObjectId object, LockState* lock, uint64_t ctx_id);
  void GrantNextWaiter(ObjectId object, LockState* lock);
  void OnLockArrive(const Event& ev);
  void OnGrantArrive(const Event& ev);
  void OnReleaseArrive(const Event& ev);
  void OnRequestTimeout(const Event& ev);
  void OnLeaseExpire(const Event& ev);
  void OnSiteCrash(uint32_t site);
  void OnSiteRecover(uint32_t site);
  void ResyncCounters();
  void FinishOp(uint64_t ctx_id);
  void ReleaseHeld(uint64_t ctx_id);
  bool AbandonContext(uint64_t ctx_id, AbortReason reason);
  void HandleAbort(TxnId txn, AbortReason reason);
  void MaybeCompactVectors();
  /// The run's registry collector: result_'s counters under their "dmt.*"
  /// names. Requires result_mu_.
  void AppendMetricsLocked(MetricsSnapshot& out) const;

  // --- Distributed tracer (active iff options_.spans or options_.paths;
  // every hook is gated on tracing_, draws no randomness and pushes no
  // events, so a traced run's simulation is bit-identical to untraced) ---
  uint64_t Us(double t) const { return static_cast<uint64_t>(t * 1000.0); }
  uint8_t DefinedCount(const TimestampVector& v) const;
  uint64_t NewSpanId() { return ++next_span_id_; }
  void RecordSpan(TxnId txn, const DistSpan& span);
  void OpenSeg(TxnId txn, DistSegment seg, uint32_t site);
  void CloseSeg(TxnId txn, bool aborted);
  void SegTransition(TxnId txn, DistSegment seg, uint32_t site);
  void RecordHop(const Event& ev, uint32_t site);
  void IgnoreHop(const Event& ev);
  void ExtractPath(TxnId txn, bool committed);

  DmtOptions options_;
  Rng rng_;
  FaultInjector injector_;
  BackoffPolicy retry_backoff_;
  BackoffPolicy restart_backoff_;
  double timeout_ = 0.0;
  double lease_ = 0.0;
  DmtResult result_;
  /// Guards result_ against the registry collector, which a snapshot on
  /// another thread (a live exporter) may run mid-simulation: held while
  /// an event is handled, except a sampler tick, which runs the collector
  /// itself.
  mutable std::mutex result_mu_;
  double now_ = 0.0;
  uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;

  uint32_t num_items_ = 0;
  std::vector<TxnRuntime> txns_;
  // Timestamp storage with a releasable base: MaybeCompactVectors() keeps
  // its footprint bounded by the live transaction span instead of num_txns.
  VectorTable table_;
  uint64_t finishes_since_compact_ = 0;
  std::vector<ItemState> items_;
  std::map<ObjectId, LockState> locks_;
  std::vector<OpContext> contexts_;
  // Per-site last-column counters, striped by site id: the paper's
  // "concatenate the site number as low order bits".
  std::vector<StripedCounters> counters_;
  std::vector<bool> site_up_;
  std::vector<ExecutedOp> executed_;
  std::vector<double> response_times_;
  TxnId next_to_start_ = 1;
  double total_response_ = 0.0;

  // Registry (never null: DmtOptions::metrics or GlobalMetrics()). Run()
  // registers a collector over the in-progress result_ - every counter is
  // live, so an attached sampler sees windowed rates - and removes it at
  // the end, which folds the final values into the registry. The
  // consecutive-abort gauge and the histograms record per event.
  MetricsRegistry* registry_ = nullptr;
  Histogram* h_response_ = nullptr;
  Histogram* h_backoff_ = nullptr;
  Gauge* g_consec_aborts_ = nullptr;

  // Distributed tracer state (see the helper block above).
  bool tracing_ = false;
  uint64_t trace_mask_ = 0;  ///< Txn sampled iff (txn & trace_mask_) == 0.
  uint64_t next_span_id_ = 0;
  std::vector<TxnTrace> traces_;
  Histogram* h_path_[kNumDistSegments] = {};
};

void DmtSim::Push(double time, Event::Kind kind, TxnId txn, uint64_t ctx,
                  ObjectId object, uint64_t gen) {
  queue_.push(Event{time, ++seq_, kind, txn, ctx, object, gen});
}

void DmtSim::Send(uint32_t from, uint32_t to, Event::Kind kind, TxnId txn,
                  uint64_t ctx, ObjectId object, uint64_t gen) {
  if (!site_up_[from]) return;  // A dead site sends nothing.
  if (from == to) {
    // Local call: no network traversal, immune to message faults.
    Push(now_, kind, txn, ctx, object, gen);
    return;
  }
  ++result_.messages_sent;
  MDTS_TRACE_AT_ARG("dmt.send", 'i', 2, from, SimUs(), "to", to);
  const std::vector<double> deliveries =
      injector_.Deliveries(options_.message_latency);
  if (deliveries.empty()) {
    ++result_.messages_dropped;
    MDTS_TRACE_AT_ARG("dmt.drop", 'i', 2, from, SimUs(), "to", to);
  }
  if (deliveries.size() > 1) {
    result_.messages_duplicated += deliveries.size() - 1;
  }
  // TraceContext: every copy of the message carries the same send-time
  // snapshot, so a duplicated delivery is recognizable as the same hop.
  double sent = 0.0;
  uint64_t parent_span = 0;
  uint8_t sent_defined = 0;
  if (tracing_ && txn != 0 && !txns_[txn].done && traces_[txn].root != 0) {
    sent = now_;
    parent_span = traces_[txn].seg_span;
    sent_defined = DefinedCount(Ts(txn));
  }
  for (double latency : deliveries) {
    Event e{now_ + latency, ++seq_, kind, txn, ctx, object, gen};
    e.sent = sent;
    e.parent_span = parent_span;
    e.sent_defined = sent_defined;
    queue_.push(e);
  }
}

uint8_t DmtSim::DefinedCount(const TimestampVector& v) const {
  uint8_t n = 0;
  for (size_t m = 0; m < v.size(); ++m) {
    if (v.IsDefined(m)) ++n;
  }
  return n;
}

void DmtSim::RecordSpan(TxnId txn, const DistSpan& span) {
  ++result_.spans_closed;
  if (span.aborted) ++result_.spans_aborted;
  if (options_.spans != nullptr) options_.spans->Record(span.site, span);
  if (options_.paths != nullptr) traces_[txn].spans.push_back(span);
}

void DmtSim::OpenSeg(TxnId txn, DistSegment seg, uint32_t site) {
  TxnTrace& tr = traces_[txn];
  tr.seg_span = NewSpanId();
  ++result_.spans_opened;
  tr.seg = seg;
  tr.seg_site = site;
  tr.seg_inc = txns_[txn].incarnation;
  tr.seg_start = now_;
}

void DmtSim::CloseSeg(TxnId txn, bool aborted) {
  TxnTrace& tr = traces_[txn];
  if (tr.seg_span == 0) return;
  DistSpan s;
  s.id = tr.seg_span;
  s.parent = tr.root;
  s.txn = txn;
  s.incarnation = tr.seg_inc;
  s.site = tr.seg_site;
  s.segment = tr.seg;
  s.aborted = aborted;
  s.start_us = Us(tr.seg_start);
  s.end_us = SimUs();
  s.defined = DefinedCount(Ts(txn));
  tr.seg_us[static_cast<size_t>(tr.seg)] += s.end_us - s.start_us;
  tr.seg_span = 0;
  RecordSpan(txn, s);
}

void DmtSim::SegTransition(TxnId txn, DistSegment seg, uint32_t site) {
  if (!tracing_) return;
  TxnTrace& tr = traces_[txn];
  if (tr.root == 0) return;
  // Same class at the same site (e.g. a timeout re-send of the pending
  // request): the open span simply continues.
  if (tr.seg_span != 0 && tr.seg == seg && tr.seg_site == site) return;
  CloseSeg(txn, /*aborted=*/false);
  OpenSeg(txn, seg, site);
}

/// Records the message-hop span of a FRESH delivery - one that actually
/// advances the protocol at `site`. Duplicate, stale and dead-context
/// deliveries go through IgnoreHop instead (first-delivery-wins), so a
/// dup storm never inflates the path.
void DmtSim::RecordHop(const Event& ev, uint32_t site) {
  if (!tracing_ || ev.parent_span == 0) return;  // Untraced or a local call.
  if (traces_[ev.txn].seg_span != ev.parent_span) {
    // Superseded causal context: the segment open at send time has already
    // closed (e.g. a crash wiped the wait queue, the retry re-sent from a
    // fresh segment, and then a jitter-delayed copy of the ORIGINAL send
    // landed). The protocol action proceeds regardless; only the trace
    // files the delivery as stale, keeping parent-covers-child intact.
    ++result_.dup_hops_ignored;
    return;
  }
  DistSpan s;
  s.id = NewSpanId();
  ++result_.spans_opened;  // A hop opens and closes in one step.
  s.parent = ev.parent_span;
  s.txn = ev.txn;
  s.incarnation = contexts_[ev.ctx].incarnation;
  s.site = site;
  s.segment = DistSegment::kNetwork;
  s.hop = true;
  s.start_us = Us(ev.sent);
  s.end_us = SimUs();
  s.defined = ev.sent_defined;
  ++result_.hops_recorded;
  RecordSpan(ev.txn, s);
}

void DmtSim::IgnoreHop(const Event& ev) {
  if (tracing_ && ev.parent_span != 0) ++result_.dup_hops_ignored;
}

/// Closes the finished transaction's root span and publishes its critical
/// path. Because the segment classes partition [first_start, now], the
/// per-class sums telescope to exactly the end-to-end latency in integer
/// microseconds - the reconciliation tools/critical_path.py re-checks.
void DmtSim::ExtractPath(TxnId txn, bool committed) {
  TxnTrace& tr = traces_[txn];
  if (tr.root == 0) return;
  ++result_.spans_closed;  // The root closes with the transaction itself.
  uint64_t total = 0;
  for (size_t s = 0; s < kNumDistSegments; ++s) {
    const uint64_t us = tr.seg_us[s];
    result_.path_seg_us[s] += us;
    total += us;
    if (us > 0) h_path_[s]->RecordWithExemplar(us, txn);
  }
  result_.path_total_us += total;
  ++result_.paths_extracted;
  MDTS_TRACE_AT_ARG("dmt.path", 'i', 2, VectorSite(txn), SimUs(), "txn", txn);
  if (options_.paths != nullptr) {
    TxnPathRecord rec;
    rec.txn = txn;
    rec.committed = committed;
    rec.attempts = txns_[txn].incarnation + 1;
    rec.root = tr.root;
    rec.start_us = Us(txns_[txn].first_start);
    rec.end_us = SimUs();
    for (size_t s = 0; s < kNumDistSegments; ++s) rec.seg_us[s] = tr.seg_us[s];
    rec.spans = std::move(tr.spans);
    const TimestampVector& v = Ts(txn);
    rec.k = v.size();
    const size_t keep = std::min(v.size(), FlightRecorder::kMaxVecElements);
    for (size_t m = 0; m < keep; ++m) {
      rec.vec.push_back(v.IsDefined(m) ? v.Get(m) : kUndefinedElement);
    }
    options_.paths->Add(std::move(rec));
  }
  tr = TxnTrace{};  // root back to 0: extracted, frees the span storage.
}

bool DmtSim::Decide(OpContext* ctx, AbortReason* why) {
  const TxnId i = ctx->txn;
  ItemState& item = Item(ctx->op.item);
  struct Policy : PlainVariant {
    DmtSim* d;
    ItemState& item;
    const OpContext& ctx;
    AbortReason* why;
    Access Me() const { return {ctx.txn, d->txns_[ctx.txn].incarnation}; }
    VectorOrder Order(TxnId a, TxnId b) {
      return Compare(d->Ts(a), d->Ts(b)).order;
    }
    // Last-column values come from the deciding site's counter stripe.
    bool Set(TxnId j, TxnId i) {
      return d->table_.Set(j, i, d->counters_[ctx.site], why);
    }
    void PushReader() { item.readers.Push(Me()); }
    void PushOldReader() { item.readers.PushOld(Me(), d->Probe()); }
    void PushWriter() { item.writers.Push(Me()); }
    auto OldReaders() {
      return [this](auto&& f) {
        return item.readers.ForEachOld(
            d->Probe(), [&](const auto& r) { return f(r.txn); }, Me());
      };
    }
  };
  Policy policy{{}, this, item, *ctx, why};
  const TxnId jr = item.readers.Top(Probe()).txn;
  const TxnId jw = item.writers.Top(Probe()).txn;
  // On reject, *why keeps the cause of the Set(j, i) that refused.
  return mdts::Decide(ctx->op.type, jr, jw, i, policy).decision ==
         OpDecision::kAccept;
}

void DmtSim::StartNextTxn(double at) {
  if (next_to_start_ > options_.num_txns) return;
  const TxnId t = next_to_start_++;
  txns_[t].started = true;
  txns_[t].first_start = at;
  Push(at, Event::Kind::kIssue, t, 0, 0);
}

void DmtSim::IssueNext(TxnId txn, double at) {
  Push(at, Event::Kind::kIssue, txn, 0, 0);
}

void DmtSim::BeginLocking(uint64_t ctx_id) {
  OpContext& ctx = contexts_[ctx_id];
  ctx.lock_plan = {ItemObject(ctx.op.item)};
  ctx.next_lock = 0;
  RequestLock(ctx_id, ctx.lock_plan[0]);
}

void DmtSim::RequestLock(uint64_t ctx_id, ObjectId object) {
  OpContext& ctx = contexts_[ctx_id];
  // The context is now blocked on the wire toward the object's home site;
  // transitioning BEFORE the send makes the new network span the parent
  // the request hop is recorded under (parent covers child).
  SegTransition(ctx.txn, DistSegment::kNetwork, ObjectSite(object));
  ++ctx.request_epoch;  // Stales any outstanding timeout for this context.
  Send(ctx.site, ObjectSite(object), Event::Kind::kLockArrive, ctx.txn,
       ctx_id, object);
  if (timeout_ > 0.0) {
    Push(now_ + retry_backoff_.EqualJitterDelay(ctx.retries, &rng_),
         Event::Kind::kRequestTimeout, ctx.txn, ctx_id, object,
         ctx.request_epoch);
  }
}

void DmtSim::Grant(ObjectId object, LockState* lock, uint64_t ctx_id) {
  lock->held = true;
  lock->holder_ctx = ctx_id;
  ++lock->generation;
  if (lease_ > 0.0) {
    Push(now_ + lease_, Event::Kind::kLeaseExpire, 0, ctx_id, object,
         lock->generation);
  }
  OpContext& ctx = contexts_[ctx_id];
  // The grant travels back: a queued waiter leaves lock_wait for the wire
  // (an immediate grant is already in the request's network segment).
  SegTransition(ctx.txn, DistSegment::kNetwork, ObjectSite(object));
  Send(ObjectSite(object), ctx.site, Event::Kind::kGrantArrive, ctx.txn,
       ctx_id, object, lock->generation);
}

void DmtSim::GrantNextWaiter(ObjectId object, LockState* lock) {
  while (!lock->waiters.empty()) {
    const uint64_t next = lock->waiters.front();
    lock->waiters.pop_front();
    if (!CtxActive(next)) continue;  // Waiter died while queued.
    Grant(object, lock, next);
    return;
  }
}

void DmtSim::OnLockArrive(const Event& ev) {
  if (!CtxActive(ev.ctx)) {
    IgnoreHop(ev);
    return;  // Stale request; never grant to the dead.
  }
  LockState& lock = locks_[ev.object];
  if (lock.held) {
    if (lock.holder_ctx == ev.ctx) {
      // Duplicate request after a lost grant: re-send the grant (requests
      // are idempotent).
      IgnoreHop(ev);
      Send(ObjectSite(ev.object), contexts_[ev.ctx].site,
           Event::Kind::kGrantArrive, ev.txn, ev.ctx, ev.object,
           lock.generation);
      return;
    }
    const bool queued =
        std::find(lock.waiters.begin(), lock.waiters.end(), ev.ctx) !=
        lock.waiters.end();
    if (!queued) {
      // Fresh request that has to wait: record its hop under the sender's
      // network segment, then move the transaction into lock_wait at the
      // object's home site until a grant frees it.
      RecordHop(ev, ObjectSite(ev.object));
      SegTransition(ev.txn, DistSegment::kLockWait, ObjectSite(ev.object));
      ++result_.lock_waits;
      lock.waiters.push_back(ev.ctx);
    } else {
      IgnoreHop(ev);
    }
    return;
  }
  RecordHop(ev, ObjectSite(ev.object));
  Grant(ev.object, &lock, ev.ctx);
}

void DmtSim::OnGrantArrive(const Event& ev) {
  OpContext& ctx = contexts_[ev.ctx];
  if (!CtxActive(ev.ctx)) {
    // The context died while the grant was in flight: hand the lock
    // straight back so waiters advance (the lease would reclaim it anyway).
    IgnoreHop(ev);
    Send(ctx.site, ObjectSite(ev.object), Event::Kind::kReleaseArrive,
         ev.txn, ev.ctx, ev.object, ev.gen);
    return;
  }
  for (const HeldLock& h : ctx.held) {
    if (h.object == ev.object) {
      IgnoreHop(ev);
      return;  // Duplicate of a grant we hold.
    }
  }
  if (ctx.next_lock >= ctx.lock_plan.size() ||
      ctx.lock_plan[ctx.next_lock] != ev.object) {
    IgnoreHop(ev);
    return;  // Stale grant from a superseded acquisition step.
  }
  RecordHop(ev, ctx.site);
  ctx.held.push_back({ev.object, ev.gen});
  ctx.retries = 0;
  ++ctx.request_epoch;  // Cancels the pending timeout for this request.
  if (!ctx.item_locked) {
    // The item record is locked: RT/WT are now stable; extend the plan
    // with the timestamp-vector objects, ascending. The virtual T0's
    // vector is an immutable constant replicated everywhere and needs no
    // lock.
    ctx.item_locked = true;
    ItemState& item = Item(ctx.op.item);
    std::set<TxnId> vec_txns;
    const TxnId jr = item.readers.Top(Probe()).txn;
    const TxnId jw = item.writers.Top(Probe()).txn;
    if (jr != kVirtualTxn) vec_txns.insert(jr);
    if (jw != kVirtualTxn) vec_txns.insert(jw);
    vec_txns.insert(ctx.txn);
    // A write is also ordered after every live line-10 reader of the item.
    if (ctx.op.type == OpType::kWrite) {
      item.readers.ForEachOld(Probe(), [&](const auto& r) {
        vec_txns.insert(r.txn);
        return true;
      });
    }
    for (TxnId t : vec_txns) ctx.lock_plan.push_back(VectorObject(t));
    std::sort(ctx.lock_plan.begin() + 1, ctx.lock_plan.end());
  }
  ++ctx.next_lock;
  if (ctx.next_lock < ctx.lock_plan.size()) {
    RequestLock(ev.ctx, ctx.lock_plan[ctx.next_lock]);
    return;
  }
  FinishOp(ev.ctx);
}

void DmtSim::ReleaseHeld(uint64_t ctx_id) {
  OpContext& ctx = contexts_[ctx_id];
  // One combined writeback/release message per remote object; grants to
  // waiters happen when the release arrives home. Releases carry the
  // granted generation so a reclaimed-and-regranted lock ignores them.
  for (const HeldLock& h : ctx.held) {
    Send(ctx.site, ObjectSite(h.object), Event::Kind::kReleaseArrive,
         ctx.txn, ctx_id, h.object, h.generation);
  }
  ctx.held.clear();
}

void DmtSim::FinishOp(uint64_t ctx_id) {
  OpContext& ctx = contexts_[ctx_id];
  // Defense in depth: the decision must only be made while every lock is
  // still genuinely ours (a lease may have expired or a home site crashed
  // while the last grant was in flight - the normal paths abandon the
  // context first, but mutual exclusion is what DSR rests on).
  for (const HeldLock& h : ctx.held) {
    const LockState& lock = locks_[h.object];
    if (!lock.held || lock.holder_ctx != ctx_id ||
        lock.generation != h.generation) {
      // Mutual exclusion was lost under us (lease reclaim or home-site
      // crash raced the final grant).
      AbandonContext(ctx_id, AbortReason::kLeaseExpired);
      return;
    }
  }
  AbortReason why = AbortReason::kNone;
  const bool accepted = Decide(&ctx, &why);
  ++result_.ops_scheduled;
  result_.ops_per_site[ctx.site] += 1;
  ctx.done = true;
  ReleaseHeld(ctx_id);

  TxnRuntime& rt = txns_[ctx.txn];
  if (accepted) {
    MDTS_TRACE_AT_ARG("dmt.op", 'i', 2, ctx.site, SimUs(), "txn", ctx.txn);
    // The op is scheduled: locks are released and the transaction thinks
    // locally until it issues the next op.
    SegTransition(ctx.txn, DistSegment::kProcessing, ctx.site);
    executed_.push_back(ExecutedOp{ctx.op, rt.incarnation});
    ++rt.next_op;
    IssueNext(ctx.txn, now_ + rng_.Exponential(options_.mean_think_time));
  } else {
    HandleAbort(ctx.txn, why);
  }
}

void DmtSim::OnReleaseArrive(const Event& ev) {
  LockState& lock = locks_[ev.object];
  if (!lock.held || lock.holder_ctx != ev.ctx ||
      lock.generation != ev.gen) {
    return;  // Stale: duplicated release, or the lease already reclaimed.
  }
  lock.held = false;
  GrantNextWaiter(ev.object, &lock);
}

void DmtSim::OnRequestTimeout(const Event& ev) {
  OpContext& ctx = contexts_[ev.ctx];
  if (!CtxActive(ev.ctx)) return;
  if (ev.gen != ctx.request_epoch) return;  // Granted or already re-sent.
  if (ctx.retries >= kMaxLockRetries) {
    ++result_.timeout_give_ups;
    AbandonContext(ev.ctx, AbortReason::kLockTimeout);
    return;
  }
  ++ctx.retries;
  ++result_.lock_retries;
  RequestLock(ev.ctx, ev.object);
}

void DmtSim::OnLeaseExpire(const Event& ev) {
  LockState& lock = locks_[ev.object];
  if (!lock.held || lock.generation != ev.gen) return;  // Already released.
  ++result_.lease_reclaims;
  MDTS_TRACE_AT_ARG("dmt.lease_reclaim", 'i', 2, ObjectSite(ev.object),
                    SimUs(), "ctx", lock.holder_ctx);
  const uint64_t holder = lock.holder_ctx;
  lock.held = false;
  ++lock.generation;  // In-flight releases from the old holder go stale.
  GrantNextWaiter(ev.object, &lock);
  // If the holder is mid-operation it lost mutual exclusion: abort it. A
  // holder that already decided and released (the release was merely lost
  // or delayed) keeps its result - the reclaim is just cleanup.
  AbandonContext(holder, AbortReason::kLeaseExpired);
}

void DmtSim::OnSiteCrash(uint32_t site) {
  site_up_[site] = false;
  MDTS_TRACE_AT("dmt.site_down", 'B', 2, site, SimUs());
  // Volatile state dies with the site: the lock table is wiped (bumping
  // generations so stale grants, releases and lease timers are ignored)
  // and queued requests are forgotten - their owners time out and retry.
  for (auto& [object, lock] : locks_) {
    if (ObjectSite(object) != site) continue;
    lock.waiters.clear();
    if (lock.held) {
      lock.held = false;
      ++lock.generation;
      if (AbandonContext(lock.holder_ctx, AbortReason::kDownSite)) {
        ++result_.down_site_aborts;
      }
    }
  }
  // Operations coordinated at the site die with it.
  for (size_t c = 0; c < contexts_.size(); ++c) {
    if (contexts_[c].site == site &&
        AbandonContext(c, AbortReason::kDownSite)) {
      ++result_.down_site_aborts;
    }
  }
}

void DmtSim::OnSiteRecover(uint32_t site) {
  site_up_[site] = true;
  MDTS_TRACE_AT("dmt.site_down", 'E', 2, site, SimUs());
  // Recovery rebuilds the site's counter state through the same
  // resynchronization path as the periodic kCounterSync: adopt the global
  // extremes. The site's own last value participates (it is derivable from
  // the durable timestamp vectors it issued), so its upper counter never
  // moves backwards and last-column uniqueness survives the crash.
  ResyncCounters();
}

void DmtSim::ResyncCounters() {
  StripedCounters extremes;
  for (const StripedCounters& c : counters_) extremes.Widen(c);
  // Only reachable sites adopt the extremes; a down site keeps its stale
  // (durable) values until its own recovery runs this path.
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    if (site_up_[s]) counters_[s].Widen(extremes);
  }
}

bool DmtSim::AbandonContext(uint64_t ctx_id, AbortReason reason) {
  OpContext& ctx = contexts_[ctx_id];
  if (ctx.dead || ctx.done) return false;
  ctx.dead = true;
  ReleaseHeld(ctx_id);  // Dropped silently if the context's site is down.
  HandleAbort(ctx.txn, reason);
  return true;
}

void DmtSim::AppendMetricsLocked(MetricsSnapshot& out) const {
  auto counter = [&out](std::string name, uint64_t v) {
    out.counters.emplace_back(std::move(name), v);
  };
  counter("dmt.committed", result_.committed);
  for (size_t r = 1; r < kNumAbortReasons; ++r) {
    const AbortReason reason = static_cast<AbortReason>(r);
    counter(std::string("dmt.aborts.") + AbortReasonName(reason),
            result_.abort_reasons[reason]);
  }
  counter("dmt.gave_up", result_.gave_up);
  counter("dmt.messages_sent", result_.messages_sent);
  counter("dmt.messages_dropped", result_.messages_dropped);
  counter("dmt.messages_duplicated", result_.messages_duplicated);
  counter("dmt.lock_waits", result_.lock_waits);
  counter("dmt.lock_retries", result_.lock_retries);
  counter("dmt.timeout_give_ups", result_.timeout_give_ups);
  counter("dmt.lease_reclaims", result_.lease_reclaims);
  counter("dmt.down_site_aborts", result_.down_site_aborts);
  counter("dmt.ops_scheduled", result_.ops_scheduled);
  counter("dmt.vectors_released", result_.vectors_released);
  // Tracer counters only exist when tracing is attached, so an untraced
  // run's registry is untouched.
  if (tracing_) {
    counter("dmt.spans_opened", result_.spans_opened);
    counter("dmt.spans_closed", result_.spans_closed);
    counter("dmt.spans_aborted", result_.spans_aborted);
    counter("dmt.hops_recorded", result_.hops_recorded);
    counter("dmt.dup_hops_ignored", result_.dup_hops_ignored);
    counter("dmt.paths_extracted", result_.paths_extracted);
    for (size_t seg = 0; seg < kNumDistSegments; ++seg) {
      counter(std::string("dmt.critical_path.") +
                  DistSegmentName(static_cast<DistSegment>(seg)) + "_us",
              result_.path_seg_us[seg]);
    }
    counter("dmt.critical_path.total_us", result_.path_total_us);
  }
}

void DmtSim::MaybeCompactVectors() {
  // Called on every transaction finish (commit or give-up); the actual
  // sweep runs every 32 finishes to amortize the item-table scan.
  if (++finishes_since_compact_ < 32) return;
  finishes_since_compact_ = 0;
  // Dropping dead entries and those below the newest committed entry
  // changes no decision (AccessHistory::Compact); it only unpins vectors.
  for (ItemState& item : items_) {
    item.readers.Compact(Probe());
    item.writers.Compact(Probe());
  }
  // Smallest id whose vector may still be consulted: any unfinished
  // transaction (its vector can still grow or reset) or any id an item
  // stack still references (RT/WT resolution compares against it).
  TxnId min_live = next_to_start_;
  for (TxnId t = 1; t < next_to_start_; ++t) {
    if (!txns_[t].done) {
      min_live = t;
      break;
    }
  }
  auto note = [&](const Access& a) { min_live = std::min(min_live, a.txn); };
  for (const ItemState& item : items_) {
    item.readers.ForEach(note);
    item.writers.ForEach(note);
  }
  result_.vectors_released += table_.ReleaseBelow(min_live);
}

void DmtSim::HandleAbort(TxnId txn, AbortReason reason) {
  TxnRuntime& rt = txns_[txn];
  if (rt.done || rt.aborted) return;
  rt.aborted = true;
  // Whatever segment the incarnation died in - mid-wire, queued behind a
  // lock on a crashing site, mid-decision - is closed-as-aborted here, so
  // spans never leak across crashes, lease reclaims or timeouts.
  if (tracing_) CloseSeg(txn, /*aborted=*/true);
  ++result_.aborts;
  result_.abort_reasons.Add(reason);
  MDTS_TRACE_AT_ARG(AbortReasonName(reason), 'i', 2, VectorSite(txn),
                    SimUs(), "txn", txn);
  if (options_.flight != nullptr) {
    // DMT aborts (timeouts, lease reclaims, down sites) have no single
    // blocking transaction; the vector still tells the auditor how far the
    // incarnation's ordering had progressed.
    options_.flight->RecordAbort(VectorSite(txn), txn, reason, /*blocker=*/0,
                                 /*op=*/nullptr, &Ts(txn), SimUs());
  }
  ++rt.attempts;
  ++rt.consecutive_aborts;
  result_.max_consecutive_aborts = std::max<uint64_t>(
      result_.max_consecutive_aborts, rt.consecutive_aborts);
  // Live starvation signal: the windowed per-transaction peak a sampler's
  // watchdog consumes (and resets) every sampling window.
  g_consec_aborts_->SetMax(rt.consecutive_aborts);
  if (rt.attempts >= options_.max_attempts) {
    ++result_.gave_up;
    rt.done = true;
    if (tracing_) ExtractPath(txn, /*committed=*/false);
    MaybeCompactVectors();
    StartNextTxn(now_ + options_.restart_delay);
    return;
  }
  // Jittered, capped-exponential restart delay (shared BackoffPolicy; see
  // sim/simulator.cc): jitter prevents lockstep retry livelocks between
  // mutually conflicting transactions, growth sheds load during outages.
  const double delay =
      restart_backoff_.ExpJitterDelay(rt.consecutive_aborts - 1, &rng_);
  h_backoff_->Record(static_cast<uint64_t>(delay * 1000.0));
  if (tracing_) {
    // The restart wait is part of the path. Crash-induced retries get
    // their own class so the crashed share stays visible in the breakdown.
    OpenSeg(txn,
            reason == AbortReason::kDownSite ? DistSegment::kSiteDownRetry
                                             : DistSegment::kBackoff,
            VectorSite(txn));
  }
  Push(now_ + delay, Event::Kind::kRestart, txn, 0, 0);
}

DmtResult DmtSim::Run() {
  WorkloadOptions w = options_.workload;
  w.num_txns = options_.num_txns;
  Rng wrng(options_.seed * 6151 + 3);
  const auto programs = GenerateTxnPrograms(w, &wrng);
  num_items_ = w.num_items;

  txns_.resize(options_.num_txns + 1);
  if (tracing_) traces_.resize(options_.num_txns + 1);
  for (TxnId t = 1; t <= options_.num_txns; ++t) {
    txns_[t].program = programs[t - 1];
  }
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    counters_.emplace_back(s, options_.num_sites);
  }
  site_up_.assign(options_.num_sites, true);
  result_.ops_per_site.assign(options_.num_sites, 0);

  const uint32_t initial = std::min(options_.concurrency, options_.num_txns);
  for (uint32_t c = 0; c < initial; ++c) {
    StartNextTxn(rng_.Exponential(options_.mean_think_time) * 0.1);
  }
  if (options_.counter_sync_interval > 0) {
    Push(options_.counter_sync_interval, Event::Kind::kCounterSync, 0, 0, 0);
  }
  if (options_.sampler != nullptr && options_.sample_interval > 0) {
    Push(options_.sample_interval, Event::Kind::kSample, 0, 0, 0);
  }
  for (const SiteCrash& crash : options_.fault.crashes) {
    if (crash.site >= options_.num_sites) continue;
    Push(crash.crash_time, Event::Kind::kSiteCrash, 0, 0, 0, crash.site);
    if (std::isfinite(crash.recover_time) &&
        crash.recover_time > crash.crash_time) {
      Push(crash.recover_time, Event::Kind::kSiteRecover, 0, 0, 0,
           crash.site);
    }
  }

  registry_->AddCollector(this, [this](MetricsSnapshot& out) {
    std::lock_guard<std::mutex> g(result_mu_);
    AppendMetricsLocked(out);
  });
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    if (ev.kind == Event::Kind::kSample) {
      // Deterministic windowed telemetry: ticks ride the simulated
      // clock, so equal seeds produce equal series and watchdog alerts.
      // Not under result_mu_: the tick's snapshot runs the collector.
      options_.sampler->TickOnce(now_);
      if (result_.committed + result_.gave_up < options_.num_txns) {
        Push(now_ + options_.sample_interval, Event::Kind::kSample, 0, 0, 0);
      }
      continue;
    }
    std::lock_guard<std::mutex> g(result_mu_);
    switch (ev.kind) {
      case Event::Kind::kCounterSync: {
        // Synchronize reachable sites' counters to the global extremes,
        // modeling the paper's periodic clock synchronization.
        ResyncCounters();
        // Stop scheduling syncs once all work is done.
        if (result_.committed + result_.gave_up < options_.num_txns) {
          Push(now_ + options_.counter_sync_interval,
               Event::Kind::kCounterSync, 0, 0, 0);
        }
        break;
      }
      case Event::Kind::kSample:
        break;  // Handled above.
      case Event::Kind::kSiteCrash:
        OnSiteCrash(static_cast<uint32_t>(ev.gen));
        break;
      case Event::Kind::kSiteRecover:
        OnSiteRecover(static_cast<uint32_t>(ev.gen));
        break;
      case Event::Kind::kRestart: {
        TxnRuntime& rt = txns_[ev.txn];
        if (rt.done) break;
        rt.aborted = false;
        ++rt.incarnation;
        rt.next_op = 0;
        table_.Reset(ev.txn);
        // Backoff over: the new incarnation starts processing.
        SegTransition(ev.txn, DistSegment::kProcessing, VectorSite(ev.txn));
        Push(now_, Event::Kind::kIssue, ev.txn, 0, 0);
        break;
      }
      case Event::Kind::kIssue: {
        TxnRuntime& rt = txns_[ev.txn];
        if (rt.done || rt.aborted) break;
        if (tracing_ && traces_[ev.txn].root == 0 &&
            (ev.txn & trace_mask_) == 0) {
          // First issue of a SAMPLED transaction: open its root span and
          // initial processing segment at the vector home site. Unsampled
          // transactions never get a root, and every other tracer hook
          // keys off the root / the send-time parent span, so they pay
          // nothing further.
          traces_[ev.txn].root = NewSpanId();
          ++result_.spans_opened;
          // A typical transaction closes a few dozen spans; reserving up
          // front keeps the per-span push_back off the allocator.
          if (options_.paths != nullptr) traces_[ev.txn].spans.reserve(64);
          OpenSeg(ev.txn, DistSegment::kProcessing, VectorSite(ev.txn));
        }
        if (rt.next_op >= rt.program.size()) {
          ++result_.committed;
          rt.done = true;
          rt.committed = true;
          rt.consecutive_aborts = 0;
          const double response = now_ - rt.first_start;
          total_response_ += response;
          response_times_.push_back(response);
          h_response_->Record(static_cast<uint64_t>(response * 1000.0));
          MDTS_TRACE_AT_ARG("dmt.commit", 'i', 2, VectorSite(ev.txn),
                            SimUs(), "txn", ev.txn);
          if (options_.flight != nullptr) {
            options_.flight->RecordCommit(VectorSite(ev.txn), ev.txn,
                                          Ts(ev.txn), {},
                                          /*phase_us=*/nullptr, SimUs());
          }
          if (tracing_) {
            CloseSeg(ev.txn, /*aborted=*/false);
            ExtractPath(ev.txn, /*committed=*/true);
          }
          MaybeCompactVectors();
          StartNextTxn(now_ +
                       rng_.Exponential(options_.mean_think_time) * 0.1);
          break;
        }
        const Op& op = rt.program[rt.next_op];
        if (!site_up_[ItemSite(op.item)]) {
          // Graceful degradation: the coordinating site is down, so the
          // transaction aborts-and-retries (with backoff) instead of
          // wedging; max_attempts bounds retries if the outage persists.
          ++result_.down_site_aborts;
          HandleAbort(ev.txn, AbortReason::kDownSite);
          break;
        }
        contexts_.push_back(OpContext{});
        OpContext& ctx = contexts_.back();
        ctx.txn = ev.txn;
        ctx.incarnation = rt.incarnation;
        ctx.op = op;
        ctx.site = ItemSite(ctx.op.item);
        BeginLocking(contexts_.size() - 1);
        break;
      }
      case Event::Kind::kLockArrive:
        if (!site_up_[ObjectSite(ev.object)]) {
          ++result_.messages_dropped;  // Receiver is down.
          break;
        }
        OnLockArrive(ev);
        break;
      case Event::Kind::kGrantArrive:
        if (!site_up_[contexts_[ev.ctx].site]) {
          ++result_.messages_dropped;  // Receiver is down.
          break;
        }
        OnGrantArrive(ev);
        break;
      case Event::Kind::kReleaseArrive:
        if (!site_up_[ObjectSite(ev.object)]) {
          ++result_.messages_dropped;  // Receiver is down.
          break;
        }
        OnReleaseArrive(ev);
        break;
      case Event::Kind::kRequestTimeout:
        OnRequestTimeout(ev);
        break;
      case Event::Kind::kLeaseExpire:
        OnLeaseExpire(ev);
        break;
    }
  }

  for (const ExecutedOp& e : executed_) {
    const TxnRuntime& rt = txns_[e.op.txn];
    if (rt.committed && e.incarnation == rt.incarnation) {
      result_.committed_history.Append(e.op);
    }
  }

  result_.makespan = now_;
  if (result_.committed > 0) {
    result_.avg_response_time =
        total_response_ / static_cast<double>(result_.committed);
    result_.p99_response_time = Percentile(response_times_, 99);
  }
  result_.final_live_vectors = table_.live_vectors();
  registry_->RemoveCollector(this);
  if (options_.sampler != nullptr && options_.sample_interval > 0) {
    // Close the series: the final window also captures the counters the
    // collector's removal folded into the registry.
    options_.sampler->TickOnce(now_ + options_.sample_interval);
  }
  return result_;
}

}  // namespace

DmtResult RunDmtSimulation(const DmtOptions& options) {
  return DmtSim(options).Run();
}

}  // namespace mdts
