/**
 * @file
 * Scenario-sweep bench: wall time of the {machine class x task mix x
 * policy} frontier sweep, a single-cell engine run, and the `.scn`
 * parser — the perf trajectory of the aiwc::scenario layer.
 *
 * Timed kernels run fixed iteration counts so the aiwc.scenario.*
 * counters in the report's metrics snapshot stay a pure function of
 * (scale, seed) and bench_compare.py can exact-match them.
 */

#include "bench_common.hh"

#include "aiwc/scenario/runner.hh"
#include "aiwc/scenario/scn_parser.hh"
#include "aiwc/sim/cluster_factory.hh"

namespace
{

using namespace aiwc;

/** Every catalog row as a scenario class — machine classes are data. */
scenario::ScenarioSpec
catalogSpec()
{
    scenario::ScenarioSpec spec;
    spec.name = "bench-catalog";
    for (std::size_t i = 0; i < sim::machineSpecCount(); ++i)
        spec.machines.push_back(
            scenario::fromMachineSpec(sim::machineSpecTable()[i]));
    return spec;
}

/** A small `.scn` document for the parser kernel (no file I/O). */
const char *const scn_doc = R"(# bench catalog
machine class:
{
    Name: bench-node
    Number of machines: 8
    CPU type: X86
    Number of cores: 64
    Memory: 262144
    S-States: [120, 90, 30, 6, 0]
    S-State latencies: [0, 400, 1500, 6000, 20000]
    P-States: [8, 6, 4, 3]
    C-States: [2.5, 1, 0.3, 0]
    MIPS: [1100, 900, 700, 500]
    GPUs: yes
    Number of GPUs: 2
    GPU TDP: 250
}
)";

scenario::FrontierReport
runSweep(int machines_per_cell)
{
    scenario::SweepOptions options;
    options.seed = bench::benchSeed();
    options.machines_per_cell = machines_per_cell;
    const scenario::ScenarioRunner runner(catalogSpec(), options);
    static const scenario::GreedyPackPolicy greedy;
    static const scenario::LoadBalancePolicy balance;
    static const scenario::EnergyFirstPolicy energy;
    const std::vector<const scenario::SchedulingPolicy *> policies{
        &greedy, &balance, &energy};
    return runner.sweep(bench::dataset(), scenario::defaultTaskMixes(),
                        policies);
}

void
printFigure(std::ostream &os)
{
    const scenario::FrontierReport report = runSweep(4);
    report.printTable(os);
    os << '\n';

    bench::reportExtras()["sweep_cells"] =
        std::to_string(report.cells.size());
    bench::reportExtras()["frontier_cells"] =
        std::to_string(report.frontier.size());
}

void
BM_ScenarioSweep(benchmark::State &state)
{
    std::size_t cells = 0;
    for (auto _ : state) {
        auto report = runSweep(4);
        cells = report.cells.size();
        benchmark::DoNotOptimize(cells);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_ScenarioSweep)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void
BM_CellSimulate(benchmark::State &state)
{
    const scenario::ScenarioSpec spec = catalogSpec();
    const scenario::EnergyFirstPolicy policy;
    const std::vector<scenario::Task> tasks = scenario::tasksFromDataset(
        bench::dataset(), scenario::defaultTaskMixes()[0],
        bench::benchSeed());
    for (auto _ : state) {
        auto stats =
            scenario::simulateCell(spec.machines[0], 4, tasks, policy);
        benchmark::DoNotOptimize(stats.joules);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_CellSimulate)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

void
BM_ScnParse(benchmark::State &state)
{
    for (auto _ : state) {
        auto parsed = scenario::parseScn(scn_doc);
        benchmark::DoNotOptimize(parsed.spec.machines.size());
    }
}
BENCHMARK(BM_ScnParse)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(200);

} // namespace

AIWC_BENCH_MAIN("scenario sweep", printFigure)
