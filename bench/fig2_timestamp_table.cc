// Regenerates paper Fig. 2: the timestamp table of MT(k) - rows are the
// transactions' timestamp vectors, and RT(x)/WT(x) locate the most recent
// read/write timestamp per item. We run a small workload through MT(3) and
// dump the live table plus the per-item index columns.

#include <cstdio>
#include <string>

#include "common/table_printer.h"
#include "core/log.h"
#include "core/mtk_scheduler.h"

namespace mdts {
namespace {

int Run() {
  std::printf("=== Fig. 2: the timestamp table of MT(k), k = 3 ===\n\n");
  const Log log =
      *Log::Parse("R1[x] R2[y] W1[y] R3[z] W3[x] R4[w] W2[w] R4[z]");
  std::printf("Workload: %s\n\n", log.ToString().c_str());

  MtkOptions options;
  options.k = 3;
  MtkScheduler s(options);
  for (const Op& op : log.ops()) {
    std::printf("  %-6s -> %s\n", OpName(op).c_str(),
                OpDecisionName(s.Process(op)));
  }

  std::printf("\nTimestamp table (rows = vectors, columns = elements):\n");
  std::printf("%s\n", s.DumpTable(4).c_str());

  std::printf("Per-item most recent read/write timestamps:\n");
  TablePrinter items({"item", "RT(x)", "TS(RT(x))", "WT(x)", "TS(WT(x))"});
  for (ItemId x = 0; x < log.num_items(); ++x) {
    const TxnId r = s.Rt(x);
    const TxnId w = s.Wt(x);
    items.AddRow({ItemName(x), "T" + std::to_string(r),
                  s.Ts(r).ToString(), "T" + std::to_string(w),
                  s.Ts(w).ToString()});
  }
  std::printf("%s\n", items.ToString().c_str());

  std::printf("Storage note (Section III-D-6): compaction drops each item's\n"
              "dead entries and every entry below its newest committed one;\n"
              "live uncommitted entries stay, since RT(x)/WT(x) falls back to\n"
              "them if a newer accessor aborts.\n");
  s.CompactItemHistories();
  std::printf("Compaction ran; table unchanged:\n%s", s.DumpTable(4).c_str());
  return 0;
}

}  // namespace
}  // namespace mdts

int main() { return mdts::Run(); }
