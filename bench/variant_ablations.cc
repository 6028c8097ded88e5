// Ablations of the protocol variations Algorithm 1 parameterizes:
//   * the Thomas write rule (Section III-D-6c),
//   * the relaxed read path Set(WT(x), i) (noted after Theorem 3),
//   * crossing out lines 9-10 entirely (the Theorem-5 mode),
//   * per-column Lamport clocks instead of line 20's TS(j, m) + 1
//     (MtkOptions::column_clocks, the rule the engine runs; not the
//     paper's),
// measured as whole-log acceptance rates and per-decision effects on the
// same random workloads, plus the column clocks on serial logs.

#include <cstdio>

#include "classify/classes.h"
#include "common/table_printer.h"
#include "core/recognizer.h"
#include "workload/generator.h"

namespace mdts {
namespace {

struct Acceptance {
  int base = 0;
  int thomas = 0;
  int relaxed = 0;
  int no_line9 = 0;
  int clocks = 0;
  int clocks_non_dsr = 0;  // Logs the column clocks accept that are not DSR.
  int total = 0;
};

Acceptance Sweep(uint32_t items, double read_fraction, int rounds) {
  Acceptance a;
  for (int i = 0; i < rounds; ++i) {
    WorkloadOptions w;
    w.num_txns = 6;
    w.num_items = items;
    w.min_ops = 2;
    w.max_ops = 3;
    w.read_fraction = read_fraction;
    w.seed = 7000 + static_cast<uint64_t>(i) * 11 + items;
    Log log = GenerateLog(w);
    ++a.total;

    MtkOptions base;
    base.k = 3;
    if (RecognizeLog(log, base).accepted) ++a.base;

    MtkOptions thomas = base;
    thomas.thomas_write_rule = true;
    if (RecognizeLog(log, thomas).accepted) ++a.thomas;

    MtkOptions relaxed = base;
    relaxed.relaxed_read_path = true;
    if (RecognizeLog(log, relaxed).accepted) ++a.relaxed;

    MtkOptions strict = base;
    strict.disable_old_read_path = true;
    if (RecognizeLog(log, strict).accepted) ++a.no_line9;

    MtkOptions clocks = base;
    clocks.column_clocks = true;
    if (RecognizeLog(log, clocks).accepted) {
      ++a.clocks;
      if (!IsDsr(log)) ++a.clocks_non_dsr;
    }
  }
  return a;
}

// Serial logs: the same transactions run one after another, which is DSR
// and in TO(1). Counts the logs MT(k) accepts under each element rule.
struct SerialAcceptance {
  int paper = 0;
  int clocks = 0;
  int total = 0;
};

SerialAcceptance SerialSweep(uint32_t items, size_t k, int rounds) {
  SerialAcceptance a;
  for (int i = 0; i < rounds; ++i) {
    WorkloadOptions w;
    w.num_txns = 6;
    w.num_items = items;
    w.min_ops = 2;
    w.max_ops = 3;
    w.read_fraction = 0.5;
    w.seed = 9000 + static_cast<uint64_t>(i) * 13 + items;
    Rng rng(w.seed);
    Log log;
    for (const std::vector<Op>& txn : GenerateTxnPrograms(w, &rng)) {
      for (const Op& op : txn) log.Append(op);
    }
    ++a.total;
    MtkOptions paper;
    paper.k = k;
    if (RecognizeLog(log, paper).accepted) ++a.paper;
    MtkOptions clocks = paper;
    clocks.column_clocks = true;
    if (RecognizeLog(log, clocks).accepted) ++a.clocks;
  }
  return a;
}

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "REPRODUCTION FAILURE", what);
  if (!ok) ++failures;
}

int Run() {
  std::printf("=== Algorithm 1 variant ablations ===\n\n");
  const int rounds = 1200;

  TablePrinter table({"items", "reads", "MT(3)", "+thomas", "+relaxed line 9",
                      "lines 9-10 removed", "+column clocks", "logs"});
  Acceptance all[6];
  int idx = 0;
  for (uint32_t items : {4u, 8u, 16u}) {
    for (double rf : {0.3, 0.7}) {
      Acceptance a = Sweep(items, rf, rounds);
      all[idx++] = a;
      table.AddRow({std::to_string(items), FormatDouble(rf, 1),
                    std::to_string(a.base), std::to_string(a.thomas),
                    std::to_string(a.relaxed), std::to_string(a.no_line9),
                    std::to_string(a.clocks), std::to_string(a.total)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  bool thomas_ge = true, relaxed_ge = true, strict_le = true;
  int clocks_non_dsr = 0;
  for (const Acceptance& a : all) {
    if (a.thomas < a.base) thomas_ge = false;
    if (a.relaxed < a.base) relaxed_ge = false;
    if (a.no_line9 > a.base) strict_le = false;
    clocks_non_dsr += a.clocks_non_dsr;
  }
  Check(thomas_ge,
        "the Thomas write rule never hurts acceptance (ignored writes "
        "instead of aborts)");
  Check(relaxed_ge,
        "the relaxed read path accepts a superset (Set encodes what the "
        "strict test only checks)");
  Check(strict_le,
        "removing lines 9-10 accepts a subset (old reads lose their "
        "escape hatch)");
  Check(clocks_non_dsr == 0,
        "every log the column clocks accept is DSR (Theorem 2 needs only "
        "that a new element pass the one it must follow)");
  std::printf("\nThe column clocks are not a superset: on these random\n"
              "interleavings they accept fewer whole logs than line 20,\n"
              "because every transaction's first element passes all the\n"
              "column has seen, which orders it after transactions that\n"
              "interleave with it and may still need to follow it.\n");

  std::printf("\nSerial logs (6 transactions of 2-3 ops run one after "
              "another; all DSR, all in TO(1)):\n");
  TablePrinter serial({"items", "k", "paper rule", "column clocks", "logs"});
  bool clocks_all = true, paper_misses = false;
  for (uint32_t items : {4u, 8u, 16u}) {
    for (size_t k : {2u, 3u}) {
      const SerialAcceptance a = SerialSweep(items, k, rounds);
      serial.AddRow({std::to_string(items), std::to_string(k),
                     std::to_string(a.paper), std::to_string(a.clocks),
                     std::to_string(a.total)});
      if (a.clocks != a.total) clocks_all = false;
      if (a.paper < a.total) paper_misses = true;
    }
  }
  std::printf("%s\n", serial.ToString().c_str());
  Check(clocks_all, "the column clocks accept every serial log at k = 2, 3");
  Check(paper_misses,
        "the paper rule rejects some serial logs at k >= 2 (line 20 fixes "
        "TS(i, 1) from T_i's first dependency only)");

  std::printf("\nStructural observation visible in the table: with lines\n"
              "9-10 removed, reads and writes are scheduled identically\n"
              "(both just Set against the latest accessor), so acceptance\n"
              "depends only on the access pattern - the counts for 30%% and\n"
              "70%% reads coincide on equal seeds. Line 9 is exactly what\n"
              "makes MT(k) read/write-aware.\n");
  std::printf("\nNote (after Theorem 3): with the relaxed read path the\n"
              "2q-1 saturation bound is no longer guaranteed, since the\n"
              "extra Set calls break Observations ii-iv. The theorems_test\n"
              "suite checks saturation only for the strict protocol.\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mdts

int main() { return mdts::Run(); }
