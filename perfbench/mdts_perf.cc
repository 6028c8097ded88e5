// Repository benchmark harness: closed-loop clients over ShardedMtkEngine
// (and, on the `logged` workload, ParallelWal), driven only through their
// public functions.
//
//   mdts_perf --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Every client thread runs one transaction at a time: it submits the six
// operations of its next pre-generated program with Process, then waits
// for CommitTxn. A rejected transaction is restarted (RestartTxn, same id)
// and replayed from its first operation, up to kMaxRejections rejections,
// after which it is abandoned. The engine runs the "deployed" configuration
// (k = 3, 32 shards, starvation fix, periodic compaction, metrics registry
// and flight recorder attached), so observability cost is inside every
// number.
//
// A run is four rounds, each on a fresh set-up with a warm-up and a timed
// window. --trace 0 prints the end-to-end metrics over all four windows.
// --trace 1 traces half of the rounds and prints the per-layer metrics:
// timings of the engine calls taken from spans the harness records around
// them, EngineStats / WalStats deltas, the engine's sampled phase
// histograms, and the tracing overhead. Nothing is instrumented inside the
// library.
//
// Both modes run the correctness gate: client-side counts must reconcile
// with EngineStats, the registry and the flight recorder; on `logged` the
// recovered log must hold every appended record and rebuild a fresh engine.
// The flight recorder tail is dumped to DIR for tools/flight_check.py
// (run.py runs it). The last stdout line is one JSON object; a failed gate
// sets "correct" to false and the exit code to 1.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/types.h"
#include "engine/sharded_engine.h"
#include "obs/abort_reason.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "wal/wal.h"

namespace mdts {
namespace {

// Fixed configuration shared by every workload.
constexpr size_t kVectorK = 3;
constexpr size_t kShards = 32;
constexpr size_t kOpsPerTxn = 6;
constexpr uint64_t kReadPercent = 60;
constexpr uint32_t kMaxRejections = 128;
// Programs generated per client; a client replays them cyclically with
// fresh transaction ids. Fixed (not sized by throughput) so memory and
// set-up time do not depend on how fast the engine is.
constexpr size_t kProgramsPerClient = size_t{1} << 17;
// A run is split into rounds, each on a fresh set-up with its own inputs
// (derived from the seed): on identical code, goodput differs repeatably
// by several percent between input sets, so one input set per run would
// make the run-to-run spread a draw over input sets.
constexpr int kRounds = 4;
// Set-ups per round; setup_s is the median over all of a run's set-ups.
constexpr int kSetupsPerRound = 5;
// Each round's timed window is cut into this many equal sub-windows
// (250 ms in a 40 s run); every end-to-end timing is the median over the
// sub-windows of all rounds, each normalised to the host's speed in that
// sub-window (see HostProbe).
constexpr int kSubWindows = 40;

struct Workload {
  const char* name;
  size_t clients;
  ItemId items;
  bool logged;  // Commits append to a ParallelWal.
};

// One client each. The host gives the benchmark four vCPUs of a shared
// machine whose speed the host varies per vCPU. With four clients the
// quartile spread between runs reached twice the bound (a client stalled
// while holding a shard mutex stalls the others); with two it still
// reached the bound, and interference could make a run faster as well as
// slower (a stalled client leaves the other to run uncontended), so no
// statistic over time slices picks out the engine's own speed. A 64-item
// `hot` workload was dropped too: compute-bound, it followed the host's
// speed most (ten-run quartile spread up to 0.21 of the median).
constexpr Workload kWorkloads[] = {
    {"solo", 1, 65536, false},
    {"logged", 1, 4096, true},
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Host speed.
// ---------------------------------------------------------------------------

// The host's virtual CPUs run a fixed loop anywhere between 1x and 6x of
// their slowest speed, per vCPU, in stretches from a fraction of a second
// to minutes, invisibly to the guest (thread CPU time stays at 100% of wall
// time; no steal time is reported). Raw timings follow that speed: ten-run
// quartile spreads up to 0.43 of the median on `solo`, and steps of 30%
// between consecutive minutes. So each timing is normalised by a fixed
// probe that the client runs between transactions: independent random
// reads over a 4 MiB table, about as cache-bound as the engine on `solo`.
// A timing reported for a sub-window is scaled to a host on which one probe
// iteration takes kProbeNominalNs, about this host's speed when it is not
// slowed. The probe runs no engine code, so an engine change moves the
// normalised numbers as it moves the raw ones.
class HostProbe {
 public:
  static constexpr double kProbeNominalNs = 16.0;
  // A client probes once per kTxnsPerProbe transactions (~1% of its time).
  static constexpr uint64_t kTxnsPerProbe = 256;
  static constexpr int kItersPerProbe = 256;
  // The main thread probes after each set-up.
  static constexpr int kItersPerSetupProbe = 16384;

  // Runs `iters` probe iterations; returns the nanoseconds they took.
  static int64_t Run(uint64_t seed, int iters) {
    static const std::vector<uint64_t> table(kTableWords, 1);
    const int64_t t0 = NowNs();
    uint64_t x = seed;
    uint64_t acc = 0;
    for (int i = 0; i < iters; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += table[(x >> 33) & (kTableWords - 1)] ^ (acc >> 7);
      if (acc & 1) acc *= 3;
    }
    sink_ = acc;
    return NowNs() - t0;
  }

  // How much slower than nominal the host ran: probe nanoseconds per
  // iteration over kProbeNominalNs (1 when nothing was probed).
  static double Slowdown(uint64_t probe_ns, uint64_t probe_iters) {
    if (probe_iters == 0) return 1.0;
    return static_cast<double>(probe_ns) /
           static_cast<double>(probe_iters) / kProbeNominalNs;
  }

 private:
  static constexpr size_t kTableWords = size_t{1} << 19;  // 4 MiB.
  static inline volatile uint64_t sink_ = 0;
};

// splitmix64: deterministic per (seed, client) streams.
uint64_t NextRand(uint64_t* s) {
  uint64_t z = (*s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Log-linear latency histogram: exact below 128 ns, then 128 sub-buckets
// per power of two (< 0.8% bucket width). Percentiles interpolate by rank
// inside the bucket, so a reported value is not stuck on a bucket edge.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  LatencyHistogram() : counts_(kSub * (64 - kSubBits + 1), 0) {}

  void Add(int64_t ns) {
    const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
    ++counts_[Index(v)];
    ++count_;
  }

  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }

  // q in [0, 1]; microseconds.
  double PercentileUs(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    uint64_t cum = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      const uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(cum + c) >= rank) {
        const double frac =
            std::clamp((rank - static_cast<double>(cum)) / c, 0.0, 1.0);
        return (Lower(i) + frac * Width(i)) / 1000.0;
      }
      cum += c;
    }
    return Lower(counts_.size() - 1) / 1000.0;
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) return v;
    const int e = 63 - __builtin_clzll(v);  // >= kSubBits
    const int shift = e - kSubBits;
    return kSub * static_cast<size_t>(shift + 1) + ((v >> shift) - kSub);
  }
  static double Lower(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const size_t shift = i / kSub - 1;
    return std::ldexp(static_cast<double>(kSub + i % kSub),
                      static_cast<int>(shift));
  }
  static double Width(size_t i) {
    return i < kSub ? 1.0 : std::ldexp(1.0, static_cast<int>(i / kSub - 1));
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Spans recorded by the harness around each call into the engine.
// ---------------------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanTxn,
  kSpanAttempt,
  kSpanProcess,
  kSpanRestart,
  kSpanCommit,
  kSpanRecover,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "txn", "attempt", "process", "restart", "commit", "recover"};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  TxnId txn = 0;
  SpanName name = kSpanTxn;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // Time covered by this span's children.
};

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// Per-thread span store. Spans nest strictly on one thread, so a small
// stack tracks the open ones and charges each closed child's duration to
// its parent. Closed spans go to a bounded buffer that is folded into
// per-name totals and duration histograms whenever it fills (and at the
// end); the spans of about one transaction in 512 (by a hash of its id,
// so every client is sampled) are kept whole for the dump.
class alignas(64) SpanRecorder {
 public:
  explicit SpanRecorder(uint32_t thread) : thread_(thread) {
    buf_.reserve(kBufSpans);
  }

  void Begin(SpanName name, int64_t now) {
    open_[depth_++] = Open{(uint64_t{thread_} << 48) | ++next_id_, name, now,
                           0};
  }

  void End(TxnId txn, int64_t now) {
    const Open o = open_[--depth_];
    const int64_t dur = now - o.start_ns;
    if (depth_ > 0) open_[depth_ - 1].child_ns += dur;
    buf_.push_back(Span{o.id, depth_ > 0 ? open_[depth_ - 1].id : 0, txn,
                        o.name, o.start_ns, now, o.child_ns});
    if (buf_.size() == kBufSpans) Fold();
  }

  void Fold() {
    for (const Span& s : buf_) {
      const int64_t dur = s.end_ns - s.start_ns;
      SpanTotals& t = totals_[s.name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - s.child_ns;
      if (s.name == kSpanProcess || s.name == kSpanRestart ||
          s.name == kSpanCommit) {
        hist_[s.name].Add(dur);
      }
      if ((s.txn * 2654435761u) >> kKeepShift == 0 &&
          kept_.size() < kMaxKept) {
        kept_.push_back(s);
      }
    }
    buf_.clear();
  }

  const SpanTotals& totals(SpanName n) const { return totals_[n]; }
  const LatencyHistogram& hist(SpanName n) const { return hist_[n]; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  static constexpr size_t kBufSpans = size_t{1} << 15;
  static constexpr int kKeepShift = 23;  // Top 9 hash bits: 1 in 512.
  static constexpr size_t kMaxKept = 8192;

  struct Open {
    uint64_t id;
    SpanName name;
    int64_t start_ns;
    int64_t child_ns;
  };

  uint32_t thread_;
  uint64_t next_id_ = 0;
  Open open_[4] = {};
  int depth_ = 0;
  std::vector<Span> buf_;
  std::vector<Span> kept_;
  SpanTotals totals_[kNumSpanNames];
  LatencyHistogram hist_[kNumSpanNames];
};

// ---------------------------------------------------------------------------
// Inputs and the engine set-up.
// ---------------------------------------------------------------------------

struct ProgOp {
  ItemId item = 0;
  bool read = true;
};

struct Program {
  std::vector<ProgOp> ops;         // kProgramsPerClient * kOpsPerTxn.
  std::vector<uint8_t> has_write;  // Per program: logged on commit.
};

Program GeneratePrograms(const Workload& w, uint64_t seed, size_t client) {
  Program p;
  p.ops.resize(kProgramsPerClient * kOpsPerTxn);
  p.has_write.assign(kProgramsPerClient, 0);
  uint64_t s = seed * 0x100000001B3ULL + client + 1;
  for (size_t i = 0; i < p.ops.size(); ++i) {
    const uint64_t r = NextRand(&s);
    p.ops[i].item = static_cast<ItemId>(r % w.items);
    p.ops[i].read = (r >> 32) % 100 < kReadPercent;
    if (!p.ops[i].read) p.has_write[i / kOpsPerTxn] = 1;
  }
  return p;
}

// A fresh temporary directory, removed with everything in it on
// destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string tmpl = parent + "/wal-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("cannot create a temporary directory under " +
                               parent);
    }
    path_ = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

EngineOptions DeployedEngineOptions(const Workload& w) {
  EngineOptions eo;
  eo.k = kVectorK;
  eo.num_shards = kShards;
  eo.starvation_fix = true;
  eo.compact_every = std::max<uint64_t>(1024, w.items / 2);
  return eo;
}

// Everything one timed window runs against. Member order is construction
// order: the engine is destroyed first, the WAL directory last.
struct Setup {
  Setup(const Workload& w, uint64_t seed, const std::string& tmp_parent)
      : flight(FlightRecorderOptions{4, 256, kVectorK}) {
    for (size_t c = 0; c < w.clients; ++c) {
      programs.push_back(GeneratePrograms(w, seed, c));
    }
    EngineOptions eo = DeployedEngineOptions(w);
    eo.metrics = &registry;
    eo.flight = &flight;
    if (w.logged) {
      dir = std::make_unique<TempDir>(tmp_parent);
      WalOptions wo;
      wo.dir = dir->path();
      wo.num_streams = 4;
      wo.k = kVectorK;
      // Every commit is encoded, checksummed and appended to its stream's
      // buffer, which is written out every 1 MiB; fdatasync runs only at
      // Close, after the timed window. With group commit the p99s measured
      // the shared host's disk: fdatasync latency jumped from ~0.13 ms to
      // 1-2 ms for tens of seconds at a time.
      wo.sync_policy = WalSyncPolicy::kNone;
      wo.metrics = &registry;
      wal = std::make_unique<ParallelWal>(wo);
      if (!wal->ok()) throw std::runtime_error("cannot open the WAL");
      eo.wal = wal.get();
    }
    engine = std::make_unique<ShardedMtkEngine>(eo);
  }

  std::vector<Program> programs;
  MetricsRegistry registry;
  FlightRecorder flight;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<ParallelWal> wal;
  std::unique_ptr<ShardedMtkEngine> engine;
};

// ---------------------------------------------------------------------------
// Closed-loop clients.
// ---------------------------------------------------------------------------

// One client's counts over one sub-window of the timed window.
struct SubWindow {
  uint64_t commits = 0;
  uint64_t attempts = 0;
  uint64_t rejected_attempts = 0;
  uint64_t probe_ns = 0;  // HostProbe runs between transactions.
  uint64_t probe_iters = 0;
  LatencyHistogram txn_latency;  // First submitted op to CommitTxn return.
  LatencyHistogram ack_latency;  // The CommitTxn call.
};

// Cache-line aligned: each client thread bumps its own counts per
// operation, and neighbouring clients must not share a line.
struct alignas(64) ClientCounts {
  // Whole run (warm-up included): reconciled against the engine.
  uint64_t started = 0;
  uint64_t committed = 0;
  uint64_t committed_writers = 0;
  uint64_t abandoned = 0;
  uint64_t accepted = 0;
  uint64_t ignored = 0;
  uint64_t rejected = 0;
  uint64_t rejected_by_reason[kNumAbortReasons] = {};
  // Timed window only.
  uint64_t win_started = 0;
  uint64_t win_abandoned = 0;
  std::vector<SubWindow> sub = std::vector<SubWindow>(kSubWindows);
  std::string error;
};

struct Shared {
  /// -1 during the warm-up, then the current sub-window, then kSubWindows.
  std::atomic<int> window{-1};
  std::atomic<bool> stop{false};

  /// The sub-window being timed, or null outside the timed window.
  SubWindow* Current(ClientCounts& cc) const {
    const int i = window.load(std::memory_order_relaxed);
    return i >= 0 && i < kSubWindows ? &cc.sub[i] : nullptr;
  }
};

template <bool kTraced>
void ClientLoop(const Workload& w, Setup& su, size_t client, Shared& sh,
                ClientCounts& cc, SpanRecorder* rec) {
  ShardedMtkEngine& engine = *su.engine;
  const Program& prog = su.programs[client];
  for (uint64_t n = 0; !sh.stop.load(std::memory_order_relaxed); ++n) {
    const TxnId txn = static_cast<TxnId>(1 + client + n * w.clients);
    const size_t p = n % kProgramsPerClient;
    const ProgOp* ops = &prog.ops[p * kOpsPerTxn];
    const bool in_window = sh.Current(cc) != nullptr;
    if (n % HostProbe::kTxnsPerProbe == 0) {
      if (SubWindow* const sw = sh.Current(cc)) {
        sw->probe_ns += HostProbe::Run(n, HostProbe::kItersPerProbe);
        sw->probe_iters += HostProbe::kItersPerProbe;
      }
    }
    const bool trace = kTraced && in_window;
    ++cc.started;
    cc.win_started += in_window;
    const int64_t t_first = NowNs();
    if (trace) rec->Begin(kSpanTxn, t_first);
    uint32_t rejections = 0;
    for (;;) {
      if (trace) rec->Begin(kSpanAttempt, NowNs());
      bool ok = true;
      for (size_t o = 0; o < kOpsPerTxn; ++o) {
        const Op op{txn, ops[o].read ? OpType::kRead : OpType::kWrite,
                    ops[o].item};
        AbortReason reason = AbortReason::kNone;
        if (trace) rec->Begin(kSpanProcess, NowNs());
        const OpDecision d = engine.Process(op, &reason);
        if (trace) rec->End(txn, NowNs());
        if (d == OpDecision::kReject) {
          ++cc.rejected;
          ++cc.rejected_by_reason[static_cast<size_t>(reason)];
          ok = false;
          break;
        }
        if (d == OpDecision::kAccept) {
          ++cc.accepted;
        } else {
          ++cc.ignored;
        }
      }
      SubWindow* const attempt_win = sh.Current(cc);
      if (attempt_win != nullptr) ++attempt_win->attempts;
      if (ok) {
        const int64_t t_ack = NowNs();
        if (trace) rec->Begin(kSpanCommit, t_ack);
        engine.CommitTxn(txn);
        const int64_t t_done = NowNs();
        if (trace) {
          rec->End(txn, t_done);
          rec->End(txn, t_done);  // attempt
          rec->End(txn, t_done);  // txn
        }
        ++cc.committed;
        cc.committed_writers += prog.has_write[p];
        if (SubWindow* const sw = sh.Current(cc)) {
          ++sw->commits;
          sw->txn_latency.Add(t_done - t_first);
          sw->ack_latency.Add(t_done - t_ack);
        }
        break;
      }
      if (attempt_win != nullptr) ++attempt_win->rejected_attempts;
      if (++rejections >= kMaxRejections) {
        if (trace) {
          const int64_t t = NowNs();
          rec->End(txn, t);  // attempt
          rec->End(txn, t);  // txn
        }
        ++cc.abandoned;
        cc.win_abandoned += in_window;
        break;
      }
      if (trace) rec->Begin(kSpanRestart, NowNs());
      engine.RestartTxn(txn);
      if (trace) {
        const int64_t t = NowNs();
        rec->End(txn, t);  // restart
        rec->End(txn, t);  // attempt
      }
    }
  }
}

struct WindowResult {
  double seconds = 0;
  double sub_seconds[kSubWindows] = {};
  double peak_rss_mb = 0;
  EngineStats stats0, stats1;
  WalStats wal0, wal1;
  // At the end of the round, clients joined.
  size_t txn_states_end = 0;
  MetricsSnapshot registry;
  std::vector<ClientCounts> clients;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;

  uint64_t Sum(uint64_t ClientCounts::*field) const {
    uint64_t s = 0;
    for (const ClientCounts& c : clients) s += c.*field;
    return s;
  }
  uint64_t WindowCommits() const {
    uint64_t s = 0;
    for (const ClientCounts& c : clients) {
      for (const SubWindow& sw : c.sub) s += sw.commits;
    }
    return s;
  }
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(t - NowNs()));
}

// Pins the calling client thread to a CPU of its own; the CPUs rotate by
// round, so every run samples each vCPU's share of the host instead of
// whichever vCPU the scheduler happens to keep a thread on. Does nothing
// when there are not enough CPUs.
void PinClient(size_t client, size_t clients, int round) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < clients) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(client + static_cast<size_t>(round)) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

// Runs the clients: a warm-up, then the timed window, then every client
// finishes its current transaction and stops.
WindowResult RunWindow(const Workload& w, Setup& su, int round,
                       double warmup, double seconds, bool traced) {
  WindowResult r;
  r.clients.resize(w.clients);
  for (size_t c = 0; c < w.clients; ++c) {
    r.recorders.push_back(
        traced ? std::make_unique<SpanRecorder>(static_cast<uint32_t>(c + 1))
               : nullptr);
  }
  Shared sh;
  std::vector<std::jthread> threads;
  // Declared after `threads`, so it runs first on every exit path: the
  // clients are told to stop before the jthreads join them.
  struct StopOnExit {
    Shared& sh;
    ~StopOnExit() { sh.stop.store(true, std::memory_order_relaxed); }
  } stop_on_exit{sh};
  for (size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      PinClient(c, w.clients, round);
      try {
        if (traced) {
          ClientLoop<true>(w, su, c, sh, r.clients[c], r.recorders[c].get());
        } else {
          ClientLoop<false>(w, su, c, sh, r.clients[c], nullptr);
        }
      } catch (const std::exception& e) {
        r.clients[c].error = e.what();
      }
    });
  }
  SleepUntilNs(NowNs() + static_cast<int64_t>(warmup * 1e9));
  r.stats0 = su.engine->stats();
  if (su.wal) r.wal0 = su.wal->stats();
  const int64_t t0 = NowNs();
  int64_t begin = t0;
  for (int i = 0; i < kSubWindows; ++i) {
    sh.window.store(i, std::memory_order_relaxed);
    SleepUntilNs(t0 + static_cast<int64_t>(seconds * 1e9 * (i + 1) /
                                           kSubWindows));
    const int64_t end = NowNs();
    r.sub_seconds[i] = static_cast<double>(end - begin) * 1e-9;
    begin = end;
  }
  sh.window.store(kSubWindows, std::memory_order_relaxed);
  r.seconds = static_cast<double>(begin - t0) * 1e-9;
  r.stats1 = su.engine->stats();
  if (su.wal) r.wal1 = su.wal->stats();
  sh.stop.store(true, std::memory_order_relaxed);
  threads.clear();  // Joins every client.
  r.peak_rss_mb = PeakRssMb();
  r.txn_states_end = su.engine->allocated_txn_states();
  r.registry = su.registry.Snapshot();
  for (auto& rec : r.recorders) {
    if (rec) rec->Fold();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Correctness gate.
// ---------------------------------------------------------------------------

struct Gate {
  bool ok = true;
  void Check(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::printf("GATE FAIL: %s\n", what.c_str());
    }
  }
};

std::string Eq(const char* what, uint64_t a, uint64_t b) {
  return std::string(what) + ": client " + std::to_string(a) + " vs " +
         std::to_string(b);
}

// Client counts against EngineStats, the registry's commit counter and the
// flight recorder's lifetime totals; dumps the flight tail to `dump_path`.
void CheckCounts(const WindowResult& r, Setup& su, const std::string& dump_path,
                 Gate& gate) {
  for (const ClientCounts& c : r.clients) {
    gate.Check(c.error.empty(), "client error: " + c.error);
  }
  const EngineStats st = su.engine->stats();
  gate.Check(st.accepted == r.Sum(&ClientCounts::accepted),
             Eq("accepted ops", r.Sum(&ClientCounts::accepted), st.accepted));
  gate.Check(st.ignored_writes == r.Sum(&ClientCounts::ignored),
             Eq("ignored writes", r.Sum(&ClientCounts::ignored),
                st.ignored_writes));
  gate.Check(st.rejected == r.Sum(&ClientCounts::rejected),
             Eq("rejected ops", r.Sum(&ClientCounts::rejected), st.rejected));
  gate.Check(st.reject_reasons.total() == st.rejected,
             Eq("reject reasons total", st.reject_reasons.total(),
                st.rejected));
  for (size_t i = 0; i < kNumAbortReasons; ++i) {
    uint64_t client = 0;
    for (const ClientCounts& c : r.clients) client += c.rejected_by_reason[i];
    const AbortReason reason = static_cast<AbortReason>(i);
    gate.Check(client == st.reject_reasons[reason],
               Eq((std::string("rejects ") + AbortReasonName(reason)).c_str(),
                  client, st.reject_reasons[reason]));
  }
  const uint64_t committed = r.Sum(&ClientCounts::committed);
  gate.Check(committed ==
                 su.registry.Snapshot().CounterValue("engine.commits"),
             Eq("commits (registry)", committed,
                su.registry.Snapshot().CounterValue("engine.commits")));
  gate.Check(committed == su.flight.commits(),
             Eq("commits (flight)", committed, su.flight.commits()));
  gate.Check(st.rejected == su.flight.aborts(),
             Eq("aborts (flight)", st.rejected, su.flight.aborts()));
  gate.Check(r.Sum(&ClientCounts::started) ==
                 committed + r.Sum(&ClientCounts::abandoned),
             "every started transaction committed or was abandoned");
  gate.Check(su.flight.DumpToFile(dump_path),
             "flight recorder dump to " + dump_path);
}

// Logged workload: closes the log, recovers it and rebuilds a fresh
// engine from it. Returns the `recover` span around the Recover call.
Span CheckRecovery(const Workload& w, const WindowResult& r, Setup& su,
                   Gate& gate) {
  su.wal->Close();
  const uint64_t appends = su.wal->stats().appends;
  Span span;
  span.id = 1;
  span.name = kSpanRecover;
  span.start_ns = NowNs();
  const WalRecovery rec = ParallelWal::Recover(su.dir->path());
  span.end_ns = NowNs();
  gate.Check(rec.ok, "recovery: " + rec.error);
  gate.Check(rec.torn_streams == 0,
             "recovery found " + std::to_string(rec.torn_streams) +
                 " torn streams");
  gate.Check(rec.records.size() == appends,
             Eq("recovered records vs appends", rec.records.size(), appends));
  gate.Check(appends == r.Sum(&ClientCounts::committed_writers),
             Eq("logged commits", r.Sum(&ClientCounts::committed_writers),
                appends));
  ShardedMtkEngine fresh(DeployedEngineOptions(w));
  const size_t applied = fresh.RecoverFrom(rec);
  gate.Check(applied == rec.records.size(),
             Eq("records applied by RecoverFrom", rec.records.size(),
                applied));
  return span;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Median over every sub-window of every round of f(sub-window duration in
// seconds, that sub-window of all clients merged).
template <typename F>
double MedianOverSubWindows(std::span<const WindowResult> rounds, F f) {
  std::vector<double> v;
  for (const WindowResult& r : rounds) {
    for (int i = 0; i < kSubWindows; ++i) {
      SubWindow merged;
      for (const ClientCounts& c : r.clients) {
        const SubWindow& sw = c.sub[i];
        merged.commits += sw.commits;
        merged.attempts += sw.attempts;
        merged.rejected_attempts += sw.rejected_attempts;
        merged.probe_ns += sw.probe_ns;
        merged.probe_iters += sw.probe_iters;
        merged.txn_latency.Merge(sw.txn_latency);
        merged.ack_latency.Merge(sw.ack_latency);
      }
      v.push_back(f(r.sub_seconds[i], merged));
    }
  }
  return Median(std::move(v));
}

double Slowdown(const SubWindow& sw) {
  return HostProbe::Slowdown(sw.probe_ns, sw.probe_iters);
}

// Goodput, normalised to the nominal host speed when `normalise`.
double Goodput(std::span<const WindowResult> rounds, bool normalise = true) {
  return MedianOverSubWindows(
      rounds, [normalise](double secs, const SubWindow& sw) {
        return Ratio(static_cast<double>(sw.commits), secs) *
               (normalise ? Slowdown(sw) : 1.0);
      });
}

// The q-percentile of a sub-window's latency histogram, normalised to the
// nominal host speed when `normalise`.
template <LatencyHistogram SubWindow::*kHist>
double Latency(std::span<const WindowResult> rounds, double q,
               bool normalise = true) {
  return MedianOverSubWindows(
      rounds, [q, normalise](double, const SubWindow& sw) {
        return (sw.*kHist).PercentileUs(q) / (normalise ? Slowdown(sw) : 1.0);
      });
}

std::vector<Metric> EndToEnd(std::span<const WindowResult> rounds,
                             double setup_s) {
  uint64_t samples = 0;
  for (const WindowResult& r : rounds) samples += r.WindowCommits();
  std::printf("txn latency samples: %llu (every commit in the timed "
              "windows; medians over %zu sub-windows)\n",
              static_cast<unsigned long long>(samples),
              rounds.size() * kSubWindows);
  std::printf("host slowdown per sub-window (probe ns/iter / %.0f):",
              HostProbe::kProbeNominalNs);
  MedianOverSubWindows(rounds, [](double, const SubWindow& sw) {
    std::printf(" %.2f", Slowdown(sw));
    return 0.0;
  });
  std::printf("\nraw, not normalised: goodput %.0f txn/s, txn p50 %.3f us, "
              "txn p99 %.3f us, ack p99 %.3f us\n",
              Goodput(rounds, false),
              Latency<&SubWindow::txn_latency>(rounds, 0.50, false),
              Latency<&SubWindow::txn_latency>(rounds, 0.99, false),
              Latency<&SubWindow::ack_latency>(rounds, 0.99, false));
  return {
      {"goodput_txn_s", Goodput(rounds), "txn/s"},
      {"txn_p50_us", Latency<&SubWindow::txn_latency>(rounds, 0.50), "us"},
      {"txn_p99_us", Latency<&SubWindow::txn_latency>(rounds, 0.99), "us"},
      {"ack_p99_us", Latency<&SubWindow::ack_latency>(rounds, 0.99), "us"},
      {"abort_ratio",
       MedianOverSubWindows(rounds,
                            [](double, const SubWindow& sw) {
                              return Ratio(
                                  static_cast<double>(sw.rejected_attempts),
                                  static_cast<double>(sw.attempts));
                            }),
       "ratio"},
      // The first round's: later rounds' high-water marks would include
      // the logged workload's recovery check.
      {"peak_rss_mb", rounds[0].peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

double PhasePercentile(const MetricsSnapshot& snap, const char* name,
                       double pct) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return static_cast<double>(h.Percentile(pct));
  }
  return 0.0;
}

std::vector<Metric> PerLayer(const WindowResult& r, double recover_s,
                             double overhead) {
  const EngineStats& a = r.stats0;
  const EngineStats& b = r.stats1;
  const double ops = static_cast<double>(
      (b.accepted + b.rejected + b.ignored_writes) -
      (a.accepted + a.rejected + a.ignored_writes));
  const double commits = static_cast<double>(r.WindowCommits());
  auto d = [](uint64_t x1, uint64_t x0) {
    return static_cast<double>(x1 - x0);
  };
  std::vector<Metric> m;

  // engine: call timings and busy share, from the harness's spans.
  LatencyHistogram process, restart, commit;
  SpanTotals totals[kNumSpanNames] = {};
  for (const auto& rec : r.recorders) {
    process.Merge(rec->hist(kSpanProcess));
    restart.Merge(rec->hist(kSpanRestart));
    commit.Merge(rec->hist(kSpanCommit));
    for (int n = 0; n < kNumSpanNames; ++n) {
      const SpanTotals& t = rec->totals(static_cast<SpanName>(n));
      totals[n].count += t.count;
      totals[n].total_ns += t.total_ns;
      totals[n].self_ns += t.self_ns;
    }
  }
  const int64_t engine_ns = totals[kSpanProcess].total_ns +
                            totals[kSpanRestart].total_ns +
                            totals[kSpanCommit].total_ns;
  m.push_back({"engine.process_us.p50", process.PercentileUs(0.50), "us"});
  m.push_back({"engine.process_us.p99", process.PercentileUs(0.99), "us"});
  m.push_back({"engine.restart_us.p50", restart.PercentileUs(0.50), "us"});
  m.push_back({"engine.commit_us.p50", commit.PercentileUs(0.50), "us"});
  m.push_back({"engine.busy_share",
               Ratio(static_cast<double>(engine_ns) * 1e-9,
                     r.seconds * static_cast<double>(r.clients.size())),
               "ratio"});

  // engine: EngineStats deltas over the window.
  m.push_back({"engine.lock_retries_per_op",
               Ratio(d(b.lock_retries, a.lock_retries), ops), "per_op"});
  m.push_back(
      {"engine.cross_shard_share",
       Ratio(d(b.cross_shard_ops, a.cross_shard_ops),
             d(b.cross_shard_ops + b.single_shard_ops,
               a.cross_shard_ops + a.single_shard_ops)),
       "ratio"});
  m.push_back({"engine.lock_contention_per_op",
               Ratio(d(b.lock_contention, a.lock_contention), ops), "per_op"});
  m.push_back({"engine.full_lock_fallbacks_per_op",
               Ratio(d(b.full_lock_fallbacks, a.full_lock_fallbacks), ops),
               "per_op"});
  m.push_back({"engine.compactions_per_s",
               Ratio(d(b.compactions, a.compactions), r.seconds), "1/s"});
  m.push_back({"engine.accept_ratio",
               Ratio(d(b.accepted, a.accepted), ops), "ratio"});
  const AbortReason named[] = {AbortReason::kLexOrder,
                               AbortReason::kEncodingExhausted};
  uint64_t named_rejects = 0;
  for (AbortReason reason : named) {
    const double n = d(b.reject_reasons[reason], a.reject_reasons[reason]);
    named_rejects += static_cast<uint64_t>(n);
    m.push_back({std::string("engine.rejects_per_commit.") +
                     AbortReasonName(reason),
                 Ratio(n, commits), "per_commit"});
  }
  m.push_back({"engine.rejects_per_commit.other",
               Ratio(d(b.rejected, a.rejected) -
                         static_cast<double>(named_rejects),
                     commits),
               "per_commit"});
  m.push_back({"engine.txn_states_end",
               static_cast<double>(r.txn_states_end),
               "count"});

  // core: Algorithm 1 kernel work.
  m.push_back({"core.set_calls_per_commit",
               Ratio(d(b.set_calls, a.set_calls), commits), "per_commit"});
  m.push_back({"core.elements_assigned_per_commit",
               Ratio(d(b.elements_assigned, a.elements_assigned), commits),
               "per_commit"});
  m.push_back({"core.comparisons_per_op",
               Ratio(d(b.element_comparisons, a.element_comparisons), ops),
               "per_op"});

  // wal: zero on the in-memory workloads, which never append. No fsync
  // metric: the logged workload syncs only at Close.
  const WalStats& wa = r.wal0;
  const WalStats& wb = r.wal1;
  m.push_back({"wal.appends_per_commit",
               Ratio(d(wb.appends, wa.appends), commits), "per_commit"});
  m.push_back({"wal.bytes_per_commit",
               Ratio(d(wb.bytes, wa.bytes), commits), "B/commit"});
  m.push_back({"wal.recover_s", recover_s, "s"});

  // obs: the engine's own sampled phase histograms (log2 buckets).
  const MetricsSnapshot& snap = r.registry;
  m.push_back({"obs.phase_lock_us.p50",
               PhasePercentile(snap, "engine.phase.lock_us", 50), "us"});
  m.push_back({"obs.phase_decide_us.p50",
               PhasePercentile(snap, "engine.phase.decide_us", 50), "us"});
  m.push_back({"obs.phase_wal_append_us.p99",
               PhasePercentile(snap, "engine.phase.wal_append_us", 99), "us"});

  // trace: self time per committed transaction, and tracing overhead.
  for (SpanName n : {kSpanTxn, kSpanAttempt, kSpanProcess, kSpanRestart,
                     kSpanCommit}) {
    m.push_back({std::string("trace.self_us_per_commit.") + kSpanNames[n],
                 Ratio(static_cast<double>(totals[n].self_ns) * 1e-3, commits),
                 "us"});
  }
  m.push_back({"trace.overhead_share", overhead, "ratio"});
  m.push_back({"harness.failed_txn_ratio",
               Ratio(static_cast<double>(r.Sum(&ClientCounts::win_abandoned)),
                     static_cast<double>(r.Sum(&ClientCounts::win_started))),
               "ratio"});

  std::printf("\nspan self time (traced window, %zu clients, %.2f s):\n",
              r.clients.size(), r.seconds);
  std::printf("  %-8s %12s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (int n = 0; n < kSpanRecover; ++n) {
    std::printf("  %-8s %12llu %12.1f %12.1f\n", kSpanNames[n],
                static_cast<unsigned long long>(totals[n].count),
                static_cast<double>(totals[n].total_ns) * 1e-6,
                static_cast<double>(totals[n].self_ns) * 1e-6);
  }
  if (recover_s > 0) {
    std::printf("  %-8s %12d %12.1f %12.1f\n", kSpanNames[kSpanRecover], 1,
                recover_s * 1e3, recover_s * 1e3);
  }
  return m;
}

void WriteSpans(const std::string& path, const WindowResult& r,
                const Span* recover) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"spans\": [");
  bool first = true;
  auto emit = [&](const Span& s) {
    std::fprintf(f,
                 "%s\n{\"id\": %llu, \"parent\": %llu, \"txn\": %u, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                 first ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.txn,
                 kSpanNames[s.name], static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    first = false;
  };
  for (const auto& rec : r.recorders) {
    for (const Span& s : rec->kept()) emit(s);
  }
  if (recover != nullptr) emit(*recover);
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics,
                 const std::vector<std::string>& dumps) {
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}, \"flight_dumps\": [");
  for (size_t i = 0; i < dumps.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", dumps[i].c_str());
  }
  std::printf("]}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: mdts_perf --workload solo|logged "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, out_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--out-dir") {
      out_dir = val;
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || !(seconds > 0) || (trace != 0 && trace != 1) ||
      out_dir.empty() || argc % 2 == 0) {
    return Usage();
  }
  std::filesystem::create_directories(out_dir);
  // An untraced run measures kRounds rounds. A traced run measures them on
  // the same inputs in the order untraced, traced, traced, untraced, ...,
  // so a linear drift of the host cancels out of the tracing overhead; the
  // per-layer metrics come from the first traced round. Either way the run
  // lasts about `seconds` plus set-ups and warm-ups.
  const int rounds = kRounds;
  const double round_seconds = seconds / rounds;
  // Warm-up before each timed window: the item table fills and compaction
  // reaches its steady period before anything is timed (a 0.25 s warm-up
  // left a 65,536-item table still filling, with a p99 ten times its steady
  // value).
  const double warmup = std::min(1.0, round_seconds / 5);
  std::printf("workload %s: %zu clients, %u items, %s, k=%zu, %zu shards, "
              "%zu ops/txn, %llu%% reads, seed %llu, %d x %.2f s windows "
              "after %.2f s warm-ups, %u hardware threads\n",
              w->name, w->clients, w->items,
              w->logged ? "WAL without sync" : "in memory", kVectorK,
              kShards, kOpsPerTxn,
              static_cast<unsigned long long>(kReadPercent),
              static_cast<unsigned long long>(seed), rounds, round_seconds,
              warmup, std::thread::hardware_concurrency());

  Gate gate;
  std::vector<std::string> dumps;
  std::vector<double> setup_times;
  std::vector<WindowResult> results;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Span recover;
  std::unique_ptr<Setup> su;
  for (int round = 0; round < rounds; ++round) {
    const bool traced = trace && (round % 4 == 1 || round % 4 == 2);
    const uint64_t round_seed =
        seed * kRounds + static_cast<uint64_t>(trace ? 0 : round);
    // Set-up: program generation plus registry, recorder, WAL and engine
    // construction, repeated; the last set-up is the one that runs. Each is
    // normalised by a probe on the same thread right after it.
    for (int i = 0; i < kSetupsPerRound; ++i) {
      su.reset();
      const int64_t t0 = NowNs();
      su = std::make_unique<Setup>(*w, round_seed, out_dir);
      const int64_t setup_ns = NowNs() - t0;
      const int64_t probe_ns =
          HostProbe::Run(static_cast<uint64_t>(i),
                         HostProbe::kItersPerSetupProbe);
      setup_times.push_back(
          static_cast<double>(setup_ns) * 1e-9 /
          HostProbe::Slowdown(static_cast<uint64_t>(probe_ns),
                              HostProbe::kItersPerSetupProbe));
    }
    results.push_back(
        RunWindow(*w, *su, round, warmup, round_seconds, traced));
    const WindowResult& r = results.back();
    dumps.push_back(out_dir + "/flight-" + std::to_string(round) + ".json");
    CheckCounts(r, *su, dumps.back(), gate);
    if (w->logged) {
      const Span span = CheckRecovery(*w, r, *su, gate);
      if (round == 1) recover = span;
    }
    attempted += r.Sum(&ClientCounts::started);
    failed += r.Sum(&ClientCounts::abandoned);
  }

  if (!trace) {
    PrintResult(gate.ok, attempted, failed,
                EndToEnd(results, Median(setup_times)), dumps);
    return gate.ok ? 0 : 1;
  }
  const std::span<const WindowResult> all(results);
  double g_untraced = 0;
  double g_traced = 0;
  for (int round = 0; round < rounds; ++round) {
    const bool traced = round % 4 == 1 || round % 4 == 2;
    (traced ? g_traced : g_untraced) +=
        Goodput(all.subspan(round, 1)) / (rounds / 2);
  }
  std::printf("tracing overhead: goodput %.0f txn/s untraced, %.0f traced\n",
              g_untraced, g_traced);
  const WindowResult& traced = results[1];
  const std::vector<Metric> layers =
      PerLayer(traced,
               static_cast<double>(recover.end_ns - recover.start_ns) * 1e-9,
               1.0 - Ratio(g_traced, g_untraced));
  WriteSpans(out_dir + "/spans.json", traced,
             w->logged ? &recover : nullptr);
  PrintResult(gate.ok, attempted, failed, layers, dumps);
  return gate.ok ? 0 : 1;
}

}  // namespace
}  // namespace mdts

int main(int argc, char** argv) {
  try {
    return mdts::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdts_perf: %s\n", e.what());
    return 1;
  }
}
