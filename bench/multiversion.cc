// Section III-D-6d extension experiment: multiversion MT(k) ("Reed [19]
// proposed a multiple version concurrency control mechanism using
// single-valued timestamps. The idea can be extended to timestamp
// vectors"). Measures the multiversion payoff against single-version MT(k)
// across read fractions: reads never abort, old-version reads absorb
// conflicts, and the Section III-D-4 seeding is what keeps writers from
// starving under a floating reader population.

#include <cstdio>
#include <memory>

#include "common/table_printer.h"
#include "mvcc/mv_online.h"
#include "sched/mtk_online.h"
#include "sim/simulator.h"

namespace mdts {
namespace {

int Run() {
  std::printf("=== Multiversion MT(k) vs single-version MT(k) ===\n\n");

  TablePrinter table({"reads", "scheduler", "committed", "gave up", "aborts",
                      "throughput", "old-version reads", "read rejects"});
  for (double rf : {0.5, 0.8, 0.95}) {
    SimOptions sim;
    sim.num_txns = 200;
    sim.concurrency = 10;
    sim.seed = 404;
    sim.workload.num_items = 6;
    sim.workload.min_ops = 2;
    sim.workload.max_ops = 4;
    sim.workload.read_fraction = rf;

    {
      MtkOptions o;
      o.k = 3;
      o.starvation_fix = true;
      MtkOnline s(o);
      SimResult r = RunSimulation(&s, sim);
      table.AddRow({FormatDouble(rf, 2), s.name(),
                    std::to_string(r.committed), std::to_string(r.gave_up),
                    std::to_string(r.aborts), FormatDouble(r.throughput, 3),
                    "-", "-"});
    }
    for (bool fix : {false, true}) {
      MvMtkOptions o;
      o.k = 3;
      o.starvation_fix = fix;
      MvOnline s(o);
      SimResult r = RunSimulation(&s, sim);
      const auto& st = s.inner().stats();
      table.AddRow({FormatDouble(rf, 2),
                    s.name() + std::string(fix ? "+fix" : ""),
                    std::to_string(r.committed), std::to_string(r.gave_up),
                    std::to_string(r.aborts), FormatDouble(r.throughput, 3),
                    std::to_string(st.old_version_reads),
                    std::to_string(st.read_rejects)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("--- version storage and reclamation ---\n");
  MvMtkOptions o;
  o.k = 3;
  o.starvation_fix = true;
  MvOnline s(o);
  SimOptions sim;
  sim.num_txns = 300;
  sim.concurrency = 10;
  sim.seed = 505;
  sim.workload.num_items = 4;
  sim.workload.min_ops = 2;
  sim.workload.max_ops = 4;
  sim.workload.read_fraction = 0.6;
  RunSimulation(&s, sim);
  size_t before = 0;
  for (ItemId x = 0; x < 4; ++x) before += s.inner().VersionCount(x);
  s.inner().PruneVersions();
  size_t after = 0;
  for (ItemId x = 0; x < 4; ++x) after += s.inner().VersionCount(x);
  std::printf("live versions across 4 items: %zu before pruning, %zu after\n"
              "(unreferenced committed versions behind the newest are "
              "reclaimed,\n per the paper's storage-reclamation note "
              "III-D-6b).\n\n",
              before, after);
  const bool serializable = s.inner().AuditMvsgAcyclic();
  std::printf("audit: committed multiversion history one-copy serializable: "
              "%s\n",
              serializable ? "yes" : "NO (bug!)");

  std::printf("\nExpected shape: reads never abort (read rejects = 0);\n"
              "with the seeding fix, multiversion MT(3) aborts far less\n"
              "than single-version MT(3), and the advantage grows with the\n"
              "read fraction; without the fix, floating readers starve\n"
              "writers - the dynamic-timestamp analogue of MVTO's\n"
              "write-rejection weakness.\n");
  return serializable ? 0 : 1;
}

}  // namespace
}  // namespace mdts

int main() { return mdts::Run(); }
