#ifndef MDTS_WORKLOAD_CLOSED_LOOP_H_
#define MDTS_WORKLOAD_CLOSED_LOOP_H_

// The closed-loop client every engine benchmark runs: issue a
// transaction's operations, restart it on a reject and replay the same
// program, abandon it after kMaxTries rejections, commit it once every
// operation was accepted. Abort handling and restart costs are inside every
// number, and measurements taken with it compare with each other.
//
// A target is anything with Process / CommitTxn / RestartTxn
// (MtkScheduler, ShardedMtkEngine). Programs are generated outside the
// timed loops by MakeWorkload. Loops stop on a wall-clock budget and,
// optionally, on a predicate checked after every transaction (per-op) or
// round (interleaved); the predicate is a template parameter, so NeverStop
// costs nothing.

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/bench_clock.h"
#include "core/types.h"

namespace mdts {

/// One operation of a pre-generated transaction program.
struct StreamOp {
  uint8_t is_read;
  uint32_t item;
};

struct Workload {
  uint32_t items = 0;
  uint32_t ops_per_txn = 0;
  // ops[t] holds worker t's transaction programs back to back; a worker
  // replays program n at offset n * ops_per_txn (mod the stream) until the
  // transaction commits.
  std::vector<std::vector<StreamOp>> ops;
};

/// Uniform items, `read_fraction` reads, drawn from xorshift64* (tiny,
/// deterministic, allocation-free); worker t's stream is seeded with
/// seed + golden-ratio * (t + 1), so a worker's programs do not depend on
/// how many workers run.
inline Workload MakeWorkload(size_t threads, uint32_t items,
                             uint32_t ops_per_txn, double read_fraction,
                             uint64_t seed) {
  constexpr size_t kTxnsPerStream = 1 << 15;  // Replayed cyclically.
  Workload w;
  w.items = items;
  w.ops_per_txn = ops_per_txn;
  w.ops.resize(threads);
  for (size_t t = 0; t < threads; ++t) {
    uint64_t s = seed + 0x9E3779B97F4A7C15ULL * (t + 1);
    w.ops[t].resize(kTxnsPerStream * ops_per_txn);
    for (StreamOp& op : w.ops[t]) {
      s ^= s >> 12;
      s ^= s << 25;
      s ^= s >> 27;
      const uint64_t r = s * 0x2545F4914F6CDD1DULL;
      op.item = static_cast<uint32_t>(r % items);
      op.is_read = (r >> 32) % 100 < static_cast<uint64_t>(read_fraction * 100)
                       ? 1
                       : 0;
    }
  }
  return w;
}

struct LoopResult {
  uint64_t committed = 0;
  uint64_t aborts = 0;     // Rejected attempts.
  uint64_t abandoned = 0;  // Transactions given up: retry cap or budget.
  uint64_t ops_accepted = 0;
  double seconds = 0.0;
  // Per-op loop only, every 8th transaction: first issue -> CommitTxn
  // returned, and the CommitTxn call alone (the ack, which holds any WAL
  // append).
  std::vector<uint64_t> latencies_ns;
  std::vector<uint64_t> ack_ns;

  uint64_t txns() const { return committed + abandoned; }
  double ops_per_sec() const {
    return seconds > 0 ? static_cast<double>(ops_accepted) / seconds : 0;
  }
  double abort_rate() const {
    const uint64_t attempts = committed + aborts;
    return attempts ? static_cast<double>(aborts) / attempts : 0;
  }
};

/// Rejections after which a transaction is abandoned: its id stays
/// aborted (an aborted id never pins the GC watermark) and the worker moves
/// to the next program. Single-version starvation-fix retries take a
/// handful; a multiversion replay can be rejected deterministically when no
/// surviving version orders before the restart's pinned vector.
inline constexpr uint32_t kMaxTries = 128;

struct NeverStop {
  constexpr bool operator()(const LoopResult&) const { return false; }
};

inline Op ToOp(TxnId txn, const StreamOp& so) {
  Op op;
  op.txn = txn;
  op.type = so.is_read ? OpType::kRead : OpType::kWrite;
  op.item = so.item;
  return op;
}

/// Worker t's per-op loop: transaction n has id 1 + t + n * stride, so
/// workers sharing a target issue disjoint ids striped across shards. The
/// clock is read every 64 transactions and after every reject. `work_ns` >
/// 0 spins that long after every accepted operation: the application work
/// that keeps a transaction open. `stop` sees this worker's running result
/// after every transaction.
template <typename Target, typename Stop = NeverStop>
LoopResult PerOpLoop(Target& target, const Workload& w, size_t t,
                     size_t stride, double seconds, uint64_t work_ns = 0,
                     Stop stop = {}) {
  LoopResult res;
  const std::vector<StreamOp>& stream = w.ops[t];
  const size_t programs = stream.size() / w.ops_per_txn;
  res.latencies_ns.reserve(1 << 16);
  res.ack_ns.reserve(1 << 16);
  Stopwatch total;
  Stopwatch txn_clock;
  for (uint64_t n = 0;; ++n) {
    if ((n & 63) == 0) {
      res.seconds = total.ElapsedSeconds();
      if (res.seconds >= seconds) break;
    }
    const TxnId txn = static_cast<TxnId>(1 + t + n * stride);
    const StreamOp* prog = &stream[(n % programs) * w.ops_per_txn];
    const bool sample = (n & 7) == 0;
    if (sample) txn_clock.Reset();
    for (uint32_t tries = 1;; ++tries) {
      bool ok = true;
      for (uint32_t o = 0; o < w.ops_per_txn; ++o) {
        ok = target.Process(ToOp(txn, prog[o])) != OpDecision::kReject;
        if (!ok) break;
        ++res.ops_accepted;
        if (work_ns == 0) continue;
        for (const Stopwatch work; work.ElapsedNanos() < work_ns;) {
        }
      }
      if (ok) {
        const uint64_t ack_start = sample ? txn_clock.ElapsedNanos() : 0;
        target.CommitTxn(txn);
        ++res.committed;
        if (sample) {
          const uint64_t end = txn_clock.ElapsedNanos();
          res.latencies_ns.push_back(end);
          res.ack_ns.push_back(end - ack_start);
        }
        break;
      }
      ++res.aborts;
      if (tries >= kMaxTries || total.ElapsedSeconds() >= seconds) {
        ++res.abandoned;
        break;
      }
      target.RestartTxn(txn);
    }
    if (stop(res)) break;
  }
  res.seconds = total.ElapsedSeconds();
  return res;
}

/// Worker t's interleaved loop: `in_flight` transactions open at once.
/// Each round decides one operation of each, one Process call per slot in
/// slot order, and then settles the slots: a rejected one restarts and
/// replays its program from the top, a finished one commits and takes the
/// next id. The clock is read every 16 rounds. On return every slot still
/// in flight commits the prefix it had accepted (a commit covers exactly
/// the accepted operations; left live, it would be an immortal top writer
/// that every later accessor of its items rejects on); those commits are
/// not counted. `stop` sees this worker's running result after every
/// round.
template <typename Target, typename Stop = NeverStop>
LoopResult InterleavedLoop(Target& target, const Workload& w, size_t t,
                           size_t stride, size_t in_flight, double seconds,
                           Stop stop = {}) {
  LoopResult res;
  const std::vector<StreamOp>& stream = w.ops[t];
  const size_t programs = stream.size() / w.ops_per_txn;
  struct Slot {
    TxnId txn = 0;
    uint64_t n = 0;      // Program / id index.
    uint32_t done = 0;   // Accepted operations so far.
    uint32_t tries = 0;  // Rejections of this transaction so far.
  };
  Stopwatch total;
  uint64_t next_n = 0;
  auto next_txn = [&](Slot& s) {
    s.n = next_n++;
    s.txn = static_cast<TxnId>(1 + t + s.n * stride);
    s.done = 0;
    s.tries = 0;
  };
  std::vector<Slot> slots(in_flight);
  for (Slot& s : slots) next_txn(s);
  std::vector<OpDecision> dec(in_flight);
  for (uint64_t round = 0;; ++round) {
    if ((round & 15) == 0) {
      res.seconds = total.ElapsedSeconds();
      if (res.seconds >= seconds) break;
    }
    for (size_t b = 0; b < in_flight; ++b) {
      const Slot& s = slots[b];
      dec[b] = target.Process(
          ToOp(s.txn, stream[(s.n % programs) * w.ops_per_txn + s.done]));
    }
    for (size_t b = 0; b < in_flight; ++b) {
      Slot& s = slots[b];
      if (dec[b] == OpDecision::kReject) {
        ++res.aborts;
        if (++s.tries >= kMaxTries) {
          ++res.abandoned;
          next_txn(s);
        } else {
          target.RestartTxn(s.txn);
          s.done = 0;
        }
        continue;
      }
      ++res.ops_accepted;
      if (++s.done < w.ops_per_txn) continue;
      target.CommitTxn(s.txn);
      ++res.committed;
      next_txn(s);
    }
    if (stop(res)) break;
  }
  res.seconds = total.ElapsedSeconds();
  for (const Slot& s : slots) {
    if (s.done > 0) target.CommitTxn(s.txn);
  }
  return res;
}

/// Runs `threads` workers over one shared target (worker t issues ids
/// 1 + t + n * threads) and merges their results; a single worker runs on
/// the calling thread. in_flight == 0 drives the per-op loop, in_flight
/// >= 1 the interleaved loop with that many transactions open.
template <typename Target, typename Stop = NeverStop>
LoopResult RunClosedLoop(Target& target, const Workload& w, size_t threads,
                         double seconds, size_t in_flight = 0,
                         uint64_t work_ns = 0, Stop stop = {}) {
  auto worker = [&](size_t t) {
    if (in_flight > 0) {
      return InterleavedLoop(target, w, t, threads, in_flight, seconds, stop);
    }
    return PerOpLoop(target, w, t, threads, seconds, work_ns, stop);
  };
  std::vector<LoopResult> parts(threads);
  if (threads == 1) {
    parts[0] = worker(0);
  } else {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] { parts[t] = worker(t); });
    }
    for (std::thread& th : pool) th.join();
  }
  LoopResult out;
  for (LoopResult& p : parts) {
    out.committed += p.committed;
    out.aborts += p.aborts;
    out.abandoned += p.abandoned;
    out.ops_accepted += p.ops_accepted;
    out.seconds = std::max(out.seconds, p.seconds);
    out.latencies_ns.insert(out.latencies_ns.end(), p.latencies_ns.begin(),
                            p.latencies_ns.end());
    out.ack_ns.insert(out.ack_ns.end(), p.ack_ns.begin(), p.ack_ns.end());
  }
  return out;
}

}  // namespace mdts

#endif  // MDTS_WORKLOAD_CLOSED_LOOP_H_
