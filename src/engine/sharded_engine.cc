#include "engine/sharded_engine.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>

#include "core/encoding.h"
#include "obs/trace.h"
#include "wal/wal.h"

namespace mdts {

namespace {

/// Phase-attribution clock; read only on sampled ops/commits.
uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Publishes `st` under the names the engine's registry collector owns.
void AppendEngineMetrics(const EngineStats& st, MetricsSnapshot& out) {
  auto counter = [&out](std::string name, uint64_t v) {
    out.counters.emplace_back(std::move(name), v);
  };
  counter("engine.accepted", st.accepted);
  counter("engine.ignored_writes", st.ignored_writes);
  for (size_t r = 1; r < kNumAbortReasons; ++r) {
    const AbortReason reason = static_cast<AbortReason>(r);
    counter(std::string("engine.rejected.") + AbortReasonName(reason),
            st.reject_reasons[reason]);
  }
  counter("engine.lock_contention", st.lock_contention);
  counter("engine.lock_retries", st.lock_retries);
  counter("engine.full_lock_fallbacks", st.full_lock_fallbacks);
  counter("engine.compactions", st.compactions);
  counter("engine.versions_installed", st.versions_installed);
  counter("engine.versions_gc", st.versions_gc);
  counter("engine.commits", st.commits);
  out.gauges.emplace_back("engine.live_versions",
                          static_cast<int64_t>(st.live_versions));
}

}  // namespace

ShardedMtkEngine::ShardedMtkEngine(const EngineOptions& options)
    : options_(options),
      num_shards_(options.num_shards < 1 ? 1 : options.num_shards),
      track_writes_(options.wal != nullptr || options.flight != nullptr ||
                    options.multiversion),
      pow2_shards_(std::has_single_bit(num_shards_)),
      shard_shift_(static_cast<uint32_t>(std::countr_zero(num_shards_))),
      t0_(options.k) {
  // Multiversion chain state lives behind ItemState::mv; nothing of it
  // may creep back into the item state every single-version item pays for.
  static_assert(sizeof(ItemState) <= 80);
  assert(options_.k >= 1);
  if (num_shards_ > kMaxShards) {
    throw std::invalid_argument(
        "ShardedMtkEngine: num_shards=" + std::to_string(num_shards_) +
        " exceeds kMaxShards=" + std::to_string(kMaxShards));
  }
  options_.num_shards = num_shards_;
  // Each shard's slice has an entry for every chunk up to the highest slot
  // a TxnId can map to. MAP_NORESERVE: the ~32 MB of address space commits
  // nothing until a page is written.
  const uint64_t dir_chunks =
      (LocalIndex(std::numeric_limits<TxnId>::max()) >> kChunkBits) + 1;
  const size_t dir_bytes = num_shards_ * dir_chunks * sizeof(Chunk*);
  void* dir = ::mmap(nullptr, dir_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (dir == MAP_FAILED) throw std::bad_alloc();
  dir_ = {static_cast<Chunk**>(dir), DirUnmap{dir_bytes}};
  for (size_t s = 0; s < num_shards_; ++s) {
    all_shards_.Add(s);
    shards_.emplace_back();
    shards_.back().index = static_cast<uint32_t>(s);
    shards_.back().dir = dir_.get() + s * dir_chunks;
    shards_.back().counters = StripedCounters(
        static_cast<uint32_t>(s), static_cast<uint32_t>(num_shards_));
    shards_.back().clocks = ColumnClocks(options_.k);
  }
  if (MetricsRegistry* reg = options_.metrics) {
    m_consec_aborts_ = reg->GetGauge("engine.max_consecutive_aborts");
    for (size_t p = 0; p < kNumTxnPhases; ++p) {
      m_phase_[p] = reg->GetHistogram(
          std::string("engine.phase.") +
          TxnPhaseName(static_cast<TxnPhase>(p)) + "_us");
    }
    phase_mask_ = (uint64_t{1} << (options_.phase_sample_shift < 63
                                       ? options_.phase_sample_shift
                                       : 63)) -
                  1;
  }
  // Shard 0's slot 0 is the virtual transaction, which lives outside the
  // chunked storage (and outside compaction); real ids there start at slot 1.
  shards_[0].base_slot = 1;
  shards_[0].next_slot = 1;
  t0_.ts = TimestampVector::Virtual(options_.k);
  t0_.life = 2;  // Committed, incarnation 0; never written again.
  // Last: a concurrent snapshot may call the collector immediately.
  if (options_.metrics != nullptr) {
    options_.metrics->AddCollector(this, [this](MetricsSnapshot& out) {
      AppendEngineMetrics(stats(), out);
    });
  }
}

ShardedMtkEngine::~ShardedMtkEngine() {
  if (options_.metrics != nullptr) options_.metrics->RemoveCollector(this);
  for (const Shard& sh : shards_) {
    ForEachDirEntry(sh, [](std::atomic_ref<Chunk*> e) {
      delete e.load(std::memory_order_relaxed);
    });
  }
}

void ShardedMtkEngine::DirUnmap::operator()(Chunk** dir) const {
  ::munmap(dir, bytes);
}

ShardedMtkEngine::TxnState* ShardedMtkEngine::PeekState(TxnId txn) const {
  if (txn == kVirtualTxn) return const_cast<TxnState*>(&t0_);
  const Shard& sh = ShardForTxn(txn);
  const uint64_t slot = LocalIndex(txn);
  Chunk* c = DirEntry(sh, slot >> kChunkBits).load(std::memory_order_acquire);
  if (c == nullptr) return nullptr;
  return &c->states[slot & (kChunkSize - 1)];
}

ShardedMtkEngine::TxnState& ShardedMtkEngine::StateLocked(Shard& sh,
                                                          TxnId txn) {
  assert(txn != kVirtualTxn && ShardIndex(txn) == sh.index);
  const uint64_t slot = LocalIndex(txn);
  assert(slot >= sh.base_slot &&
         "access to a compacted (released) txn");
  const std::atomic_ref<Chunk*> entry = DirEntry(sh, slot >> kChunkBits);
  Chunk* c = entry.load(std::memory_order_relaxed);
  if (c == nullptr) {
    // Build the chunk fully before publication: lock-free liveness peeks
    // may load the pointer the instant the release store lands.
    auto* fresh = new Chunk;
    fresh->states.reserve(kChunkSize);
    for (uint32_t n = 0; n < kChunkSize; ++n) {
      fresh->states.emplace_back(options_.k);
    }
    entry.store(fresh, std::memory_order_release);
    c = fresh;
  }
  if (slot >= sh.next_slot) sh.next_slot = slot + 1;
  return c->states[slot & (kChunkSize - 1)];
}

ShardedMtkEngine::ItemState& ShardedMtkEngine::ItemLocked(Shard& sh,
                                                          ItemId item) {
  const size_t local = LocalIndex(item);
  if (sh.items.size() <= local) sh.items.resize(local + 1);
  return sh.items[local];
}

VectorCompareResult ShardedMtkEngine::CompareStates(Shard& shx,
                                                    const TxnState& a,
                                                    const TxnState& b) {
  const VectorCompareResult r = Compare(a.ts, b.ts);
  shx.stats.element_comparisons += r.index + 1;
  return r;
}

bool ShardedMtkEngine::SetStates(Shard& shx, TxnState& sj, TxnState& si,
                                 TxnId j, TxnId i, AbortReason* why) {
  if (j == i) return true;  // Line 15.
  ++shx.stats.set_calls;
  const VectorCompareResult cr = CompareStates(shx, sj, si);
  // Last-column values come from shard shx's counter stripe, globally
  // unique via the value * N + shard encoding; the other columns' from
  // shx's ColumnClocks, whose receive rule also runs here.
  const EncodeOutcome out = EncodeDependency(
      cr, options_.k, sj.ts, si.ts, j == kVirtualTxn, /*right_end=*/false,
      shx.counters, &shx.clocks);
  shx.stats.elements_assigned += out.elements_assigned;
  if (!out.ok) {
    *why = out.why;
    return false;
  }
  return true;
}

OpDecision ShardedMtkEngine::DecideLocked(const Op& op, Shard& shx,
                                          ItemState& item, TxnState& si,
                                          const Ref& jr, const Ref& jw,
                                          AbortReason* why) {
  const TxnId i = op.txn;
  const uint32_t inc_i = LifeIncarnation(si.life);

  // Cause recorded by the SetStates call that refused the dependency.
  AbortReason cause = AbortReason::kNone;
  struct Policy : PlainVariant {
    ShardedMtkEngine* e;
    Shard& shx;
    ItemState& item;
    TxnState& si;
    const Op& op;
    Access me;
    AbortReason* cause;
    VectorOrder Order(const Ref& a, const Ref& b) {
      return e->CompareStates(shx, *a.state, *b.state).order;
    }
    bool Set(const Ref& j, const Ref& i) {
      return e->SetStates(shx, *j.state, *i.state, j.txn, i.txn, cause);
    }
    void PushReader() { item.readers.Push(me); }
    void PushOldReader() { item.readers.PushOld(me, e->Probe()); }
    void PushWriter() {
      item.writers.Push(me);
      if (e->track_writes_) AddWrite(si, op.item);
    }
    auto OldReaders() {
      return [this](auto&& f) {
        return item.readers.ForEachOld(e->Probe(), f, me);
      };
    }
  };
  Policy policy{{}, this, shx, item, si, op, {i, inc_i}, &cause};
  const auto d = Decide(op.type, jr, jw, Ref{i, &si}, policy);
  switch (d.decision) {
    case OpDecision::kAccept:
      ++shx.stats.accepted;
      return OpDecision::kAccept;
    case OpDecision::kIgnore:
      ++shx.stats.ignored_writes;
      return OpDecision::kIgnore;
    case OpDecision::kReject:
      break;
  }
  AbortLocked(shx, op, cause, d.j.txn, si, why);
  if (options_.starvation_fix) SeedAfter(si.ts, d.j.state->ts);
  return OpDecision::kReject;
}

void ShardedMtkEngine::MvUnlinkDeadLocked(Shard& shx, MvItem& chain,
                                          uint64_t dead_epoch) {
  if (chain.unlink_epoch == dead_epoch) return;
  chain.unlink_epoch = dead_epoch;
  const size_t gone = chain.UnlinkDead(Probe());
  // Rebuild the coverage sets from the survivors - the only place stale
  // (dead-accessor) shards are ever shed. Incremental adds at read and
  // install time keep them supersets between unlinks.
  chain.writers = {};
  chain.accessors = {};
  for (size_t v = 0; v < chain.size(); ++v) {
    const MvVersion& ver = chain.At(v);
    if (ver.writer.txn != kVirtualTxn) {
      chain.writers.Add(ShardIndex(ver.writer.txn));
    }
    for (const Access& r : ver.readers) chain.accessors.Add(ShardIndex(r.txn));
  }
  chain.accessors.AddAll(chain.writers);
  if (gone != 0) {
    chain.newest.end_stamp = 0;  // A promoted version is newest again.
    shx.stats.versions_gc += gone;
  }
}

void ShardedMtkEngine::MvInstalledLocked(Shard& shx, MvItem& chain,
                                         MvVersion& v) {
  // The stamp orders the install on the engine-wide clock for GC
  // visibility; the serialization order itself lives in the vectors. A
  // version linked below the newest is born superseded.
  const uint64_t stamp = mv_stamp_.fetch_add(1, std::memory_order_relaxed);
  v.begin_stamp = stamp;
  (&v == &chain.newest ? chain.older.back() : v).end_stamp = stamp;
  chain.writers.Add(ShardIndex(v.writer.txn));
  chain.accessors.Add(ShardIndex(v.writer.txn));
  ++shx.stats.versions_installed;
}

void ShardedMtkEngine::MvPruneLocked(Shard& shx, MvItem& chain,
                                     uint64_t watermark, size_t keep,
                                     bool force) {
  // A chain no longer than `keep` has nothing below its floor: the floor
  // spans every committed version, and a live writer's version below it
  // ends after that writer's begin stamp, so never below the watermark.
  // Hysteresis gate (incremental GC only; sweeps pass force): in steady
  // state a chain hovers at the keep-tail length, yet commit-side GC
  // calls this for every written item of every commit, and the
  // committed_writer probes are the dominant cost. Skip until the chain
  // outgrows the tail by a slack margin; a real cut then brings it back
  // near the floor, so the scan runs once per kPruneSlack installs
  // instead of once per commit. Between CompactAll sweeps memory stays
  // bounded at keep + kPruneSlack versions per chain.
  constexpr size_t kPruneSlack = 8;
  if (watermark == 0 ||
      chain.older.size() < (force ? keep : keep + kPruneSlack)) {
    return;
  }
  // Committed is as permanent as aborted (a committed id never restarts),
  // so the scan is safe on lock-free liveness words under shard(item).
  auto committed_writer = [probe = Probe()](const Access& a) {
    return a.Committed(probe(a.txn));
  };
  // Newest committed version, over the combined chain (older then
  // newest). Everything strictly older is a candidate; the newest
  // committed version itself must survive - it is what future readers
  // fall back to.
  size_t newest_committed;  // Index into older, or size() = newest.
  if (committed_writer(chain.newest.writer)) {
    newest_committed = chain.older.size();
  } else {
    size_t found = chain.older.size() + 1;
    for (size_t v = chain.older.size(); v-- > 0;) {
      if (committed_writer(chain.older[v].writer)) {
        found = v;
        break;
      }
    }
    if (found > chain.older.size()) return;  // No committed version yet.
    newest_committed = found;
  }
  // Truncate the longest oldest-prefix below the newest committed version
  // whose end and read stamps both precede the watermark. Soundness: the
  // watermark is the oldest live incarnation's begin stamp, and a live
  // reader's begin stamp bounds every read stamp it produces from below -
  // so read_stamp < watermark means every reader of the version is
  // committed or dead, its reads-from and reader-before-later-writer MVSG
  // edges already encoded in the vectors. end_stamp < watermark means the
  // successor's install (which encoded the version-order edge and ordered
  // the version's readers before the successor's writer) also precedes
  // every live transaction. Dropping the prefix only removes placement
  // slots - a write that can no longer find a slot rejects with
  // kVersionConflict instead of inserting below the horizon - and a read
  // that would have taken a truncated version falls back to a surviving
  // newer one or (degenerately) rejects; neither can violate the order
  // already encoded.
  // The keep-tail floor: the index of the keep-th newest committed version
  // (T0 bases count - they are the ideal fallback). Everything at or above
  // it survives so post-GC readers keep an older writer to fall back to
  // when the newest one is un-orderable.
  size_t floor_idx = newest_committed;
  for (size_t kept = 1, v = newest_committed; kept < keep && v-- > 0;) {
    if (committed_writer(chain.older[v].writer)) {
      floor_idx = v;
      ++kept;
    }
  }
  size_t cut = 0;
  while (cut < floor_idx && chain.older[cut].end_stamp < watermark &&
         chain.older[cut].read_stamp < watermark) {
    ++cut;
  }
  if (cut == 0) return;
  uint64_t gone = 0;
  for (size_t v = 0; v < cut; ++v) {
    if (chain.older[v].writer.txn != kVirtualTxn) ++gone;
  }
  chain.older.erase(chain.older.begin(),
                    chain.older.begin() + static_cast<long>(cut));
  if (gone != 0) {
    shx.stats.versions_gc += gone;
  }
}

void ShardedMtkEngine::MvSweepLocked(uint64_t watermark, size_t keep) {
  mv_watermark_.store(watermark, std::memory_order_release);
  // Every shard lock is held, so the epoch read here covers every death
  // the sweep's unlinks will observe.
  const uint64_t dead_epoch = mv_dead_epoch_.load(std::memory_order_acquire);
  for (Shard& sh : shards_) {
    for (ItemState& item : sh.items) {
      if (!item.mv) continue;
      MvUnlinkDeadLocked(sh, *item.mv, dead_epoch);
      MvPruneLocked(sh, *item.mv, watermark, keep, /*force=*/true);
    }
  }
}

OpDecision ShardedMtkEngine::DecideMvLocked(const Op& op, Shard& shx,
                                            MvItem& chain, TxnState& si,
                                            AbortReason* why) {
  const TxnId i = op.txn;
  if (si.begin_stamp == 0) {
    // First decided operation of the incarnation: pin the GC horizon.
    si.begin_stamp = mv_stamp_.fetch_add(1, std::memory_order_relaxed);
  }
  // Every chain entry is live - MvUnlinkDeadLocked ran under this lock -
  // and the held lockset covers the shard of every chain writer (for a
  // write, also of every reader), freezing the liveness words and vectors
  // the decision reads: a read's walk sets only (writer, reader) pairs.
  struct Policy {
    ShardedMtkEngine* e;
    Shard& shx;
    TxnState& si;
    TxnId i;
    TxnState& S(TxnId t) { return t == i ? si : *e->PeekState(t); }
    VectorOrder Order(TxnId a, TxnId b) {
      return e->CompareStates(shx, S(a), S(b)).order;
    }
    bool Set(TxnId j, TxnId to, AbortReason* cause) {
      return e->SetStates(shx, S(j), S(to), j, to, cause);
    }
  };
  Policy policy{this, shx, si, i};
  const Access me{i, LifeIncarnation(si.life)};
  const bool read = op.type == OpType::kRead;
  const MvOutcome out = read ? chain.Read(me, policy) : chain.Write(me, policy);
  if (out.decision == OpDecision::kReject) {
    if (read) ++shx.stats.read_rejects;
    AbortLocked(shx, op, out.cause, out.blocker, si, why);
    // A read reject has no one blocker to seed past (matching the
    // scheduler).
    if (!read && options_.starvation_fix) {
      SeedAfter(si.ts, PeekState(out.blocker)->ts);
    }
    return OpDecision::kReject;
  }
  ++shx.stats.accepted;
  if (out.version == nullptr) return OpDecision::kAccept;  // Own write.
  if (read) {
    out.version->read_stamp =
        mv_stamp_.fetch_add(1, std::memory_order_relaxed);
    chain.accessors.Add(ShardIndex(i));
    if (out.old_version) ++shx.stats.old_version_reads;
  } else {
    MvInstalledLocked(shx, chain, *out.version);
    // CommitTxn prunes the written chains, so multiversion mode always
    // tracks writes (track_writes_).
    AddWrite(si, op.item);
  }
  return OpDecision::kAccept;
}

void ShardedMtkEngine::RecordPhase(TxnPhase phase, uint64_t ns, TxnId tag) {
  const uint64_t us = ns / 1000;
  m_phase_[static_cast<size_t>(phase)]->RecordWithExemplar(us, tag);
  if (Tracer::Enabled()) {
    // A completed span backdated over the measured slice, carrying the
    // same transaction id the histogram exemplar points at - so a p99
    // bucket resolves to a concrete Perfetto span via arg "txn".
    static constexpr const char* kSpanNames[kNumTxnPhases] = {
        "engine.phase.admission", "engine.phase.lock",
        "engine.phase.decide",    "engine.phase.mv_read",
        "engine.phase.wal_append", "engine.phase.fsync",
        "engine.phase.ack"};
    TraceEvent e;
    e.name = kSpanNames[static_cast<size_t>(phase)];
    e.ph = 'X';
    const uint64_t now = Tracer::NowUs();
    e.ts_us = now > us ? now - us : 0;
    e.dur_us = us;
    e.arg_name = "txn";
    e.arg = tag;
    Tracer::Get().Emit(e);
  }
}

OpDecision ShardedMtkEngine::RejectLocked(Shard& shx, const Op& op,
                                          AbortReason reason, TxnId blocker,
                                          const TxnState* si,
                                          AbortReason* why) {
  shx.stats.reject_reasons.Add(reason);
  RejectRecord& r = shx.last_reject;
  r.seq = reject_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  r.reason = reason;
  r.op = op;
  r.blocker = blocker;
  if (why != nullptr) *why = reason;
  if (options_.flight != nullptr) {
    options_.flight->RecordAbort(op.txn, op.txn, reason, blocker, &op,
                                 si != nullptr ? &si->ts : nullptr,
                                 FlightRecorder::CoarseNowUs());
  }
  return OpDecision::kReject;
}

OpDecision ShardedMtkEngine::AbortLocked(Shard& shx, const Op& op,
                                         AbortReason reason, TxnId blocker,
                                         TxnState& si, AbortReason* why) {
  StoreLife(si, si.life | 1);
  if (options_.multiversion) {
    mv_dead_epoch_.fetch_add(1, std::memory_order_release);
  }
  return RejectLocked(shx, op, reason, blocker, &si, why);
}

std::string ShardedMtkEngine::ExplainLastReject() const {
  RejectRecord newest;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> g(sh.mu);
    if (sh.last_reject.seq > newest.seq) newest = sh.last_reject;
  }
  if (newest.seq == 0) return "no rejection yet";
  return FormatReject(OpName(newest.op), newest.reason,
                      newest.blocker == kVirtualTxn
                          ? 0
                          : static_cast<uint32_t>(newest.blocker));
}

void ShardedMtkEngine::LockShard(Shard& sh) const {
  if (sh.mu.try_lock()) return;
  sh.mu.lock();
  ++sh.stats.lock_contention;  // sh.mu is held now.
  MDTS_TRACE_INSTANT_ARG("engine.shard_lock_contention", "shard", sh.index);
}

void ShardedMtkEngine::LockShards(const ShardSet& set) const {
  set.ForEach([this](size_t s) { LockShard(shards_[s]); });
}

void ShardedMtkEngine::UnlockShards(const ShardSet& set) const {
  set.ForEachDescending([this](size_t s) { shards_[s].mu.unlock(); });
}

OpDecision ShardedMtkEngine::Process(const Op& op, AbortReason* why) {
  MDTS_TRACE_SPAN(op.type == OpType::kRead ? "engine.read" : "engine.write");
  // Start the transaction's flight-ring slot toward L1 (as CommitTxn does
  // again): a transaction that aborts nothing writes no record before its
  // commit record, so without this the commit-point lock stalls on a slot
  // last touched a whole ring ago.
  if (options_.flight != nullptr) options_.flight->PrefetchNext(op.txn);
  if (why != nullptr) *why = AbortReason::kNone;
  Shard& shx = ShardForItem(op.item);
  if (op.txn == kVirtualTxn) {
    // T0 is virtual; it issues no operations. Not an admission decision,
    // so the single/cross-shard counters stay untouched.
    LockShard(shx);
    RejectLocked(shx, op, AbortReason::kInvalidOp, kVirtualTxn, nullptr, why);
    shx.mu.unlock();
    return OpDecision::kReject;
  }
  Shard& shi = ShardForTxn(op.txn);

  // Phase attribution (sampled): admission = op entry to the first lock
  // acquisition, lock = acquiring the ordered locksets (all rounds) plus
  // the in-place extensions taken mid-round, decide = the decision minus
  // those extensions and the MV read walk, mv_read = the MV read-path
  // decision. Unsampled ops skip every clock read.
  const bool phase_sampled = SamplePhases(kOpSeq);
  const uint64_t t_entry = phase_sampled ? NowNs() : 0;
  uint64_t admission_ns = 0;
  uint64_t lock_ns = 0;
  uint64_t decide_ns = 0;
  uint64_t mv_read_ns = 0;

  // Round-one lockset {shard(x), shard(i)}, acquired in ascending order.
  // Tops are discovered under the locks, and a top on a shard outside the
  // set extends it in place (see `cover` below), so an uncontended op is
  // decided in this one round.
  ShardSet want;
  want.Add(shx.index);
  want.Add(shi.index);
  uint64_t retries = 0;
  uint64_t fallbacks = 0;
  OpDecision d = OpDecision::kReject;
  for (size_t attempt = 0;; ++attempt) {
    uint64_t t_lock0 = 0;
    if (phase_sampled) {
      t_lock0 = NowNs();
      if (attempt == 0) admission_ns = t_lock0 - t_entry;
    }
    LockShards(want);
    uint64_t t_decide0 = 0;
    if (phase_sampled) {
      t_decide0 = NowNs();
      lock_ns += t_decide0 - t_lock0;
    }
    uint64_t extend_ns = 0;  // Extension lock time inside this round.

    // The one coverage-miss path, shared by the single-version tops and
    // the multiversion chains. `resolve(need)` adds to `need` every shard
    // the decision reads besides shard(x) and shard(i); it runs under
    // shard(x), reading liveness lock-free. Shards the held lockset misses
    // are added to it in place, ascending: a blocking LockShard for a shard
    // above every held one, a try_lock for the rest. A thread never blocks
    // on a shard below one it holds, so no wait cycle can form - all the
    // Section V-B ordered-locking argument asks - and every shard taken
    // joins `want`, so the unlock stays exact even when the extension
    // stops early. Then `resolve` runs again (a top can die between the
    // peek and the moment its shard is held) and the op is decided in
    // place if it is covered. A failed try_lock or a need still uncovered
    // defers the op to the next round, whose lockset is shard(x), shard(i)
    // and the last `need`.
    ShardSet need;
    auto cover = [&](auto&& resolve) -> bool {
      resolve(need);
      if (want.Covers(need)) return true;
      const uint64_t t0 = phase_sampled ? NowNs() : 0;
      const size_t top = want.Max();
      bool held = true;
      need.Minus(want).ForEach([&](size_t s) {
        if (!held) return;
        if (s > top) {
          LockShard(shards_[s]);
        } else if (!shards_[s].mu.try_lock()) {
          held = false;
          return;
        }
        want.Add(s);
      });
      if (phase_sampled) extend_ns += NowNs() - t0;
      if (!held) return false;
      ShardSet again;
      resolve(again);
      if (want.Covers(again)) return true;
      need = again;
      return false;
    };
    TxnState& si = StateLocked(shi, op.txn);
    ItemState& item = ItemLocked(shx, op.item);
    MvItem* chain = nullptr;
    Ref jr;
    Ref jw;
    bool covered;
    if (options_.multiversion) {
      if (!item.mv) item.mv = std::make_unique<MvItem>();
      chain = item.mv.get();
      // The per-op dead-unlink walk only pays off when something died:
      // gate it on the engine-wide dead epoch. Equal epochs mean no
      // abort store since this chain's last scrub, so no entry can be
      // dead. (A death racing this very decision was always possible -
      // liveness reads are lock-free - and stays benign: the encodings
      // against a just-dead transaction merely add constraints, and the
      // entry is unlinked at the next epoch change.) Unlinking first
      // (safe under shard(x) alone) keeps the coverage sets to the live
      // population.
      MvUnlinkDeadLocked(shx, *chain,
                         mv_dead_epoch_.load(std::memory_order_acquire));
      // Reads order against every live chain writer, writes also against
      // its readers, so the lockset must cover those shards.
      covered = cover([&](ShardSet& out) {
        out.AddAll(op.type == OpType::kRead ? chain->writers
                                            : chain->accessors);
      });
    } else {
      // Resolve the tops under shard(x); liveness reads are lock-free, so
      // this works even when the accessors' shards are not (yet) held. A
      // write is also ordered after every live line-10 reader.
      covered = cover([&](ShardSet& out) {
        jr = item.readers.Top(Probe());
        jw = item.writers.Top(Probe());
        if (jr.txn != kVirtualTxn) out.Add(ShardIndex(jr.txn));
        if (jw.txn != kVirtualTxn) out.Add(ShardIndex(jw.txn));
        if (op.type == OpType::kWrite) {
          item.readers.ForEachOld(Probe(), [&](const Ref& r) {
            out.Add(ShardIndex(r.txn));
            return true;
          });
        }
      });
    }
    if (covered) {
      // Everything the decision touches - item stacks or chain, the
      // vectors, shard(x)'s counters - is under a held mutex, and so is
      // the liveness of every accessor it reads: clearing it needs their
      // (held) shards. Single- vs cross-shard is read off the lockset held
      // at decision time, extensions included.
      if (want.Multiple()) {
        ++shx.stats.cross_shard_ops;
      } else {
        ++shx.stats.single_shard_ops;
      }
      if (LifeAborted(si.life) || LifeCommitted(si.life)) {
        d = RejectLocked(shx, op, AbortReason::kStaleTxn, kVirtualTxn, &si,
                         why);
      } else if (chain == nullptr) {
        d = DecideLocked(op, shx, item, si, jr, jw, why);
      } else if (phase_sampled && op.type == OpType::kRead) {
        const uint64_t t0 = NowNs();
        d = DecideMvLocked(op, shx, *chain, si, why);
        mv_read_ns = NowNs() - t0;
      } else {
        d = DecideMvLocked(op, shx, *chain, si, why);
      }
    }
    if (phase_sampled) {
      decide_ns += NowNs() - t_decide0 - extend_ns;
      lock_ns += extend_ns;
    }
    if (covered) {
      // Attribute the retry work to shard(x), which every round holds.
      shx.stats.lock_retries += retries;
      shx.stats.full_lock_fallbacks += fallbacks;
      UnlockShards(want);
      break;
    }

    // Deferred: a try_lock met a peer's lock, or a top died and its
    // successor's shard was missing. Never after a fallback round: every
    // shard covers every top. Tops can keep shifting under contention, so
    // after kMaxLockRetries unstable rounds take every lock.
    assert(fallbacks == 0);
    UnlockShards(want);
    ++retries;
    if (attempt >= kMaxLockRetries) {
      want = all_shards_;
      ++fallbacks;
    } else {
      want = need;
      want.Add(shx.index);
      want.Add(shi.index);
    }
  }

  if (phase_sampled) {
    RecordPhase(TxnPhase::kAdmission, admission_ns, op.txn);
    RecordPhase(TxnPhase::kLock, lock_ns, op.txn);
    RecordPhase(TxnPhase::kDecide,
                decide_ns > mv_read_ns ? decide_ns - mv_read_ns : 0, op.txn);
    if (options_.multiversion) {
      RecordPhase(TxnPhase::kMvRead, mv_read_ns, op.txn);
    }
  }
  return d;
}

void ShardedMtkEngine::CommitTxn(TxnId txn) {
  Shard& sh = ShardForTxn(txn);
  FlightRecorder* const flight = options_.flight;
  // The commit record's ring slot is always cold (slots cycle); start the
  // lines toward L1 now so the record inside the commit-point lock below
  // does not stall on them.
  if (flight != nullptr) flight->PrefetchNext(txn);
  // Commit-side phase attribution, sampled on its own sequence (a commit
  // is not tied to any one op): wal_append / fsync / ack.
  const bool sampled = SamplePhases(kCommitSeq);
  uint64_t wal_append_ns = 0;
  uint64_t fsync_ns = 0;
  uint64_t ack_ns = 0;
  std::vector<ItemId> writes;
  if (options_.wal != nullptr) {
    // Snapshot the vector and write set under the lock, then log OUTSIDE
    // it: AppendCommit may fdatasync, and holding a shard mutex across a
    // disk sync would stall every peer on that shard. The caller owns the
    // transaction, so nothing mutates its state between the two sections.
    TimestampVector ts(options_.k);
    {
      std::lock_guard<std::mutex> g(sh.mu);
      TxnState& s = StateLocked(sh, txn);
      assert(!LifeAborted(s.life));
      ts = s.ts;
      writes.swap(s.writes);
    }
    if (!writes.empty()) {
      // Write-ahead ordering: the record reaches the log (and disk, per
      // the WAL's sync policy) before the commit point below makes the
      // state observable as committed. Read-only transactions skip the
      // log - they leave no state for recovery to rebuild.
      if (sampled) {
        // The ticket's sync_wait_us isolates the fdatasync the append ran
        // from the encode + buffer time around it.
        WalAppendTicket ticket;
        const uint64_t t0 = NowNs();
        options_.wal->AppendCommit(txn, ts, writes, &ticket);
        const uint64_t total_ns = NowNs() - t0;
        fsync_ns = ticket.sync_wait_us * 1000;
        wal_append_ns = total_ns > fsync_ns ? total_ns - fsync_ns : 0;
      } else {
        options_.wal->AppendCommit(txn, ts, writes);
      }
    }
  }
  {
    const uint64_t t0 = sampled ? NowNs() : 0;
    std::lock_guard<std::mutex> g(sh.mu);
    TxnState& s = StateLocked(sh, txn);
    const uint64_t w = s.life;
    assert(!LifeAborted(w));
    StoreLife(s, w | 2);
    ++sh.stats.commits;
    // The WAL section above already moved the write set out; otherwise it
    // is moved out here, for the flight record and multiversion pruning.
    if (options_.wal == nullptr) writes.swap(s.writes);
    if (sampled) ack_ns = NowNs() - t0;
    if (flight != nullptr) {
      // Recorded under the commit-point lock, reading the vector in place:
      // the caller owns the transaction, so nothing has changed it since
      // the WAL section's copy.
      uint32_t phase_us[kNumTxnPhases] = {};
      if (sampled) {
        phase_us[static_cast<size_t>(TxnPhase::kWalAppend)] =
            static_cast<uint32_t>(wal_append_ns / 1000);
        phase_us[static_cast<size_t>(TxnPhase::kFsync)] =
            static_cast<uint32_t>(fsync_ns / 1000);
        phase_us[static_cast<size_t>(TxnPhase::kAck)] =
            static_cast<uint32_t>(ack_ns / 1000);
      }
      flight->RecordCommit(txn, txn, s.ts, writes,
                           sampled ? phase_us : nullptr,
                           FlightRecorder::CoarseNowUs());
    }
  }
  if (sampled) {
    if (options_.wal != nullptr) {
      RecordPhase(TxnPhase::kWalAppend, wal_append_ns, txn);
      RecordPhase(TxnPhase::kFsync, fsync_ns, txn);
    }
    RecordPhase(TxnPhase::kAck, ack_ns, txn);
  }
  if (options_.multiversion && !writes.empty()) {
    // Commit-side GC: prune the chains this transaction wrote against the
    // last sweep's watermark, bounding live versions between CompactAll
    // sweeps at the cost of one single-shard lock per written item. The
    // stored watermark only lags the true one (a stale minimum is
    // conservative), and unlink/prune only drop permanently-dead or
    // watermark-invisible state, so shard(item)'s lock alone suffices.
    std::sort(writes.begin(), writes.end());
    writes.erase(std::unique(writes.begin(), writes.end()), writes.end());
    const uint64_t wm = mv_watermark_.load(std::memory_order_acquire);
    // Epoch read before the scrub: any death ordered before this load is
    // seen by the unlink, so stamping the items with it is conservative.
    const uint64_t dead_epoch = mv_dead_epoch_.load(std::memory_order_acquire);
    for (const ItemId x : writes) {
      Shard& shx = ShardForItem(x);
      LockShard(shx);
      MvItem& chain = *ItemLocked(shx, x).mv;  // Created by the write.
      MvUnlinkDeadLocked(shx, chain, dead_epoch);
      MvPruneLocked(shx, chain, wm, kMvKeepTail, /*force=*/false);
      shx.mu.unlock();
    }
  }
  if (options_.compact_every > 0 &&
      commits_since_compact_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          options_.compact_every) {
    commits_since_compact_.store(0, std::memory_order_relaxed);
    Compact(/*periodic=*/true);
  }
}

void ShardedMtkEngine::RestartTxn(TxnId txn) {
  Shard& sh = ShardForTxn(txn);
  std::lock_guard<std::mutex> g(sh.mu);
  TxnState& s = StateLocked(sh, txn);
  const uint64_t w = s.life;
  assert(LifeAborted(w));
  (void)w;
  // One store bumps the incarnation and clears both flags, so the previous
  // incarnation's item accesses turn permanently dead.
  StoreLife(s, (static_cast<uint64_t>(LifeIncarnation(w)) + 1) << 2);
  // The new incarnation number is the transaction's consecutive-abort
  // count (a txn id commits at most once, so incarnations only ever come
  // from restarts); the gauge holds the window peak until a sampler's
  // watchdog consumes it.
  if (m_consec_aborts_ != nullptr) {
    m_consec_aborts_->SetMax(static_cast<int64_t>(LifeIncarnation(w)) + 1);
  }
  if (!options_.starvation_fix) {
    s.ts.Reset();  // Fresh, fully undefined vector.
  }
  // With the fix the seeded vector from the rejection is kept.
  s.writes.clear();   // The dead incarnation's writes are never committed.
  s.begin_stamp = 0;  // The new incarnation re-pins its GC horizon.
}

bool ShardedMtkEngine::IsAborted(TxnId txn) const {
  if (txn == kVirtualTxn) return false;
  Shard& sh = ShardForTxn(txn);
  const uint64_t slot = LocalIndex(txn);
  // The owner's lock keeps Compact from freeing the state's chunk between
  // the base check and the read.
  std::lock_guard<std::mutex> g(sh.mu);
  if (slot < sh.base_slot) return false;
  const TxnState* s = PeekState(txn);
  return s != nullptr && LifeAborted(s->life);
}

bool ShardedMtkEngine::IsCommitted(TxnId txn) const {
  if (txn == kVirtualTxn) return true;
  Shard& sh = ShardForTxn(txn);
  const uint64_t slot = LocalIndex(txn);
  std::lock_guard<std::mutex> g(sh.mu);
  // Only committed states are released.
  if (slot < sh.base_slot) return true;
  const TxnState* s = PeekState(txn);
  return s != nullptr && LifeCommitted(s->life);
}

TimestampVector ShardedMtkEngine::TsSnapshot(TxnId txn) const {
  if (txn == kVirtualTxn) return t0_.ts;
  Shard& sh = ShardForTxn(txn);
  std::lock_guard<std::mutex> g(sh.mu);
  return const_cast<ShardedMtkEngine*>(this)->StateLocked(sh, txn).ts;
}

size_t ShardedMtkEngine::CompactAll() { return Compact(/*periodic=*/false); }

size_t ShardedMtkEngine::Compact(bool periodic) {
  MDTS_TRACE_SPAN("engine.compact");
  LockShards(all_shards_);
  if (options_.multiversion) {
    // 1-MV. Exact live watermark: with every shard lock held, no liveness
    // word or begin stamp can move, so the minimum begin stamp over live
    // (neither committed nor aborted) incarnations is stable. With no live
    // transaction the watermark passes the whole clock. The floor: an
    // explicit sweep that finds every created transaction committed -
    // nothing live, nothing aborted and waiting to restart with a seeded
    // vector - keeps only each chain's newest committed version. Every
    // other sweep keeps kMvKeepTail fallbacks; a periodic one runs inside
    // CommitTxn, mid-traffic, and the transactions about to start need
    // them too: a fresh reader's first read pins its vector, after which
    // a second item's newest writer can be un-orderable before it.
    uint64_t wm = mv_stamp_.load(std::memory_order_relaxed) + 1;
    bool all_committed = true;
    for (Shard& sh : shards_) {
      for (uint64_t slot = sh.base_slot; slot < sh.next_slot; ++slot) {
        Chunk* c =
            DirEntry(sh, slot >> kChunkBits).load(std::memory_order_relaxed);
        if (c == nullptr) {
          slot |= kChunkSize - 1;  // Skip the rest of the missing chunk.
          continue;
        }
        const TxnState& s = c->states[slot & (kChunkSize - 1)];
        const uint64_t w = s.life;
        if (LifeCommitted(w)) continue;
        all_committed = false;
        if (!LifeAborted(w) && s.begin_stamp != 0 && s.begin_stamp < wm) {
          wm = s.begin_stamp;
        }
      }
    }
    MvSweepLocked(wm, all_committed && !periodic ? 1 : kMvKeepTail);
  } else {
    // 1. Compact every item history (Section III-D-6a/b).
    for (Shard& sh : shards_) {
      for (ItemState& item : sh.items) {
        item.readers.Compact(Probe());
        item.writers.Compact(Probe());
      }
    }
  }

  // 2. Smallest slot still referenced by any item, per transaction shard.
  // Multiversion chains reference transactions through version writers and
  // readers (the stacks stay empty), and a referenced state must survive:
  // PeekState on a released chunk would dangle.
  std::vector<uint64_t> min_ref(num_shards_);
  for (size_t t = 0; t < num_shards_; ++t) min_ref[t] = shards_[t].next_slot;
  auto note_ref = [&](const Access& a) {
    if (a.txn == kVirtualTxn) return;
    uint64_t& m = min_ref[ShardIndex(a.txn)];
    m = std::min(m, LocalIndex(a.txn));
  };
  for (Shard& sh : shards_) {
    for (const ItemState& item : sh.items) {
      item.readers.ForEach(note_ref);
      item.writers.ForEach(note_ref);
      if (item.mv) item.mv->ForEachAccess(note_ref);
    }
  }

  // 3. Advance each shard's base over committed unreferenced states and
  // free chunks it has fully passed.
  size_t total = 0;
  for (Shard& sh : shards_) {
    const uint64_t old_base = sh.base_slot;
    uint64_t slot = old_base;
    const uint64_t stop = min_ref[sh.index];
    while (slot < stop) {
      Chunk* c =
          DirEntry(sh, slot >> kChunkBits).load(std::memory_order_relaxed);
      if (c == nullptr) break;  // A never-created gap blocks, as the
                                // auto-created states do in MtkScheduler.
      if (!LifeCommitted(c->states[slot & (kChunkSize - 1)].life)) break;
      ++slot;
    }
    if (slot > old_base) {
      for (uint64_t ci = old_base >> kChunkBits; (ci + 1) * kChunkSize <= slot;
           ++ci) {
        const std::atomic_ref<Chunk*> entry = DirEntry(sh, ci);
        delete entry.load(std::memory_order_relaxed);
        entry.store(nullptr, std::memory_order_release);
      }
      sh.base_slot = slot;
      sh.stats.txns_released += slot - old_base;
      total += slot - old_base;
    }
  }
  ++shards_[0].stats.compactions;
  UnlockShards(all_shards_);
  return total;
}

size_t ShardedMtkEngine::RecoverFrom(const WalRecovery& recovery) {
  if (!recovery.ok) {
    throw std::invalid_argument("RecoverFrom: unusable recovery: " +
                                recovery.error);
  }
  // An empty recovery (every stream lost before its header synced) carries
  // no k of its own; there is nothing to apply and nothing to mismatch.
  if (recovery.records.empty()) return 0;
  if (recovery.k != options_.k) {
    throw std::invalid_argument(
        "RecoverFrom: recovered k=" + std::to_string(recovery.k) +
        " does not match engine k=" + std::to_string(options_.k));
  }
  MDTS_TRACE_SPAN("engine.recover");
  LockShards(all_shards_);
  size_t applied = 0;
  // Every column's recovered extremes, for the clock resync below.
  std::vector<TsElement> col_min(options_.k, kUndefinedElement);
  std::vector<TsElement> col_max(options_.k, kUndefinedElement);
  for (const WalCommitRecord& r : recovery.records) {
    if (r.txn == kVirtualTxn) continue;
    Shard& shi = ShardForTxn(r.txn);
    TxnState& s = StateLocked(shi, r.txn);
    s.ts = r.vec;
    StoreLife(s, 2);  // Committed, incarnation 0.
    // Counter resynchronization, the DMT(k) Section V recovery rule
    // applied intra-process: every defined element belongs to the counter
    // class value % N; push that shard's counter past it so post-recovery
    // assignments never reuse or undercut a recovered value. Scanning all
    // columns is conservative (middle columns mostly hold constants) but
    // the only cost is counters skipping a few values.
    for (size_t m = 0; m < options_.k; ++m) {
      if (!r.vec.IsDefined(m)) continue;
      const TsElement v = r.vec.Get(m);
      shards_[StripedCounters::StripeOf(v, static_cast<uint32_t>(num_shards_))]
          .counters.AdvancePast(v);
      if (col_min[m] == kUndefinedElement || v < col_min[m]) col_min[m] = v;
      if (col_max[m] == kUndefinedElement || v > col_max[m]) col_max[m] = v;
    }
    ++applied;
  }
  // Column-clock resync: any shard may order a fresh transaction after a
  // recovered one, so every shard's clocks move past every recovered
  // element. Without it a fresh writer's first element would come from a
  // clock still at 1, below the recovered writers it must follow next.
  for (Shard& sh : shards_) {
    for (size_t m = 0; m < sh.clocks.columns(); ++m) {
      if (col_min[m] == kUndefinedElement) continue;
      sh.clocks.Observe(m, col_min[m]);
      sh.clocks.Observe(m, col_max[m]);
    }
  }
  if (options_.multiversion) {
    // Rebuild the version chains from the merged record order: the merge
    // visits commit records in vector order, so installing each logged
    // write at the newest position reproduces the chains' version order.
    // Reader state is not logged (reads leave nothing to rebuild), so
    // recovered versions carry no readers.
    for (size_t idx = 0; idx < recovery.records.size(); ++idx) {
      const WalCommitRecord& r = recovery.records[idx];
      if (r.txn == kVirtualTxn) continue;
      for (const ItemId x : r.writes) {
        Shard& shx = ShardForItem(x);
        ItemState& it = ItemLocked(shx, x);
        if (!it.mv) it.mv = std::make_unique<MvItem>();
        MvItem& chain = *it.mv;
        MvInstalledLocked(shx, chain,
                          chain.InsertAfter(chain.size() - 1, {r.txn, 0}));
      }
    }
    // Every recovered transaction is committed and nothing is live yet
    // (the all-committed case of an explicit sweep): the watermark passes
    // the whole clock and each chain prunes down to its newest committed
    // version.
    MvSweepLocked(mv_stamp_.load(std::memory_order_relaxed) + 1, 1);
  } else {
    // Reinstall the per-item committed top writers from the merged order;
    // reader state is not logged (reads leave nothing to rebuild), so the
    // recovered items start with virtual-T0 reader tops.
    for (const auto& [item, idx] : recovery.item_writer) {
      const WalCommitRecord& r = recovery.records[idx];
      Shard& shx = ShardForItem(item);
      ItemState& it = ItemLocked(shx, item);
      it.readers.Clear();
      it.writers.Clear();
      it.writers.Push({r.txn, 0});
    }
  }
  UnlockShards(all_shards_);
  return applied;
}

bool ShardedMtkEngine::MvAuditChains() const {
  if (!options_.multiversion) return true;
  LockShards(all_shards_);
  bool ok = true;
  auto live = [probe = Probe()](const Access& a) {
    return a.Live(probe(a.txn));
  };
  for (Shard& sh : shards_) {
    for (const ItemState& item : sh.items) {
      if (!item.mv || !ok) continue;
      const MvItem& chain = *item.mv;
      const TxnState* prev = nullptr;
      const size_t chain_len = chain.size();
      for (size_t v = 0; v < chain_len && ok; ++v) {
        const MvVersion& ver = chain.At(v);
        // End stamps: 0 exactly on the newest version.
        if ((ver.end_stamp == 0) != (v == chain_len - 1)) ok = false;
        if (!live(ver.writer)) continue;  // Unlinked at the next touch.
        const TxnState* cur = PeekState(ver.writer.txn);
        // Consecutive versions by the same writer need no mutual order;
        // distinct live writers must have their order encoded.
        if (prev != nullptr && prev != cur &&
            Compare(prev->ts, cur->ts).order != VectorOrder::kLess) {
          ok = false;  // Version order not (or no longer) encoded.
        }
        prev = cur;
      }
    }
  }
  UnlockShards(all_shards_);
  return ok;
}

EngineStats ShardedMtkEngine::stats() const {
  EngineStats out;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> g(sh.mu);
    const EngineStats& s = sh.stats;
    out.accepted += s.accepted;
    out.ignored_writes += s.ignored_writes;
    out.set_calls += s.set_calls;
    out.elements_assigned += s.elements_assigned;
    out.element_comparisons += s.element_comparisons;
    out.txns_released += s.txns_released;
    out.single_shard_ops += s.single_shard_ops;
    out.cross_shard_ops += s.cross_shard_ops;
    out.lock_retries += s.lock_retries;
    out.full_lock_fallbacks += s.full_lock_fallbacks;
    out.lock_contention += s.lock_contention;
    out.compactions += s.compactions;
    out.commits += s.commits;
    out.versions_installed += s.versions_installed;
    out.versions_gc += s.versions_gc;
    out.old_version_reads += s.old_version_reads;
    out.read_rejects += s.read_rejects;
    out.reject_reasons += s.reject_reasons;
  }
  out.rejected = out.reject_reasons.total();
  // An item's installs and unlinks count on its own shard, under its lock,
  // so the per-shard sums never see more unlinked than installed.
  out.live_versions = out.versions_installed - out.versions_gc;
  return out;
}

size_t ShardedMtkEngine::allocated_txn_states() const {
  size_t total = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> g(sh.mu);
    ForEachDirEntry(sh, [&total](std::atomic_ref<Chunk*> e) {
      if (e.load(std::memory_order_relaxed) != nullptr) total += kChunkSize;
    });
  }
  return total;
}

}  // namespace mdts
