/**
 * @file
 * `sweep`: the scenario lab. scenarios/fleet.scn x defaultTaskMixes() x
 * {greedy-pack, load-balance, energy-first} is 90 cells of 6 machines
 * each over 4,000 jobs sampled from a pool of four scale-0.02 studies.
 * The scenario engine and its policies run only here; they share the
 * event-engine design with `sim`.
 */

#include <algorithm>

#include "aiwc/core/lifecycle_analyzer.hh"
#include "aiwc/core/multi_gpu_analyzer.hh"
#include "aiwc/core/power_analyzer.hh"
#include "aiwc/core/service_time_analyzer.hh"
#include "aiwc/core/utilization_analyzer.hh"
#include "aiwc/scenario/policy.hh"
#include "aiwc/scenario/runner.hh"
#include "aiwc/scenario/scn_parser.hh"
#include "bench.hh"

namespace perfbench
{
namespace
{

using namespace aiwc;

/** The scenario catalog, relative to the repository root. */
constexpr const char *scn_path = "scenarios/fleet.scn";

class Sweep final : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        // A sweep's cost grows faster than its job count, so every seed
        // replays the same number of jobs, drawn uniformly from the pool.
        const bool tiny = ctx.options.tiny;
        const core::Dataset pool = synthesizePool(
            ctx.options.seed, tiny ? 0.01 : 0.02, tiny ? 1 : 4);
        std::vector<core::JobRecord> records = pool.records();
        for (std::size_t i = records.size(); i > 1; --i)
            std::swap(records[i - 1],
                      records[splitmix64(ctx.options.seed ^ i) % i]);
        records.resize(std::min<std::size_t>(records.size(),
                                             tiny ? 500 : 4'000));
        std::sort(records.begin(), records.end(),
                  [](const auto &a, const auto &b) { return a.id < b.id; });
        dataset_ = core::Dataset(std::move(records));
        parsed_ = scenario::parseScnFile(scn_path);
        scenario::SweepOptions sweep;
        sweep.seed = ctx.options.seed;
        sweep.machines_per_cell = 6;
        runner_ = std::make_unique<scenario::ScenarioRunner>(parsed_.spec,
                                                             sweep);
    }

    PassResult
    pass(Context &ctx, std::size_t) override
    {
        const std::vector<const scenario::SchedulingPolicy *> policies{
            &greedy_, &balance_, &energy_};
        const double t0 = nowMs();
        std::string json;
        {
            Spans::Scope s(ctx.spans, "scenario.sweep");
            const scenario::FrontierReport report = runner_->sweep(
                dataset_, scenario::defaultTaskMixes(), policies);
            cells_ = report.cells.size();
            json = report.toJson();
        }
        const double ms = nowMs() - t0;

        const std::uint64_t digest = fnv1a(json);
        if (passes_++ == 0)
            digest_ = digest;
        digest_mismatches_ += digest != digest_;
        cell_mismatches_ += cells_ != expected_cells;
        ctx.report.op(digest == digest_ && cells_ == expected_cells);
        return {ms, static_cast<double>(cells_)};
    }

    const char *throughputName() const override { return "sweep_cells_per_s"; }

    /** Fidelity of the study the sweep replays (the frontier has none). */
    double
    paperLogErr() const override
    {
        return perfbench::paperLogErr(
            batchPaperTerms(core::ServiceTimeAnalyzer().analyze(dataset_),
                            core::UtilizationAnalyzer().analyze(dataset_),
                            core::PowerAnalyzer().analyze(dataset_),
                            core::MultiGpuAnalyzer().analyze(dataset_),
                            core::LifecycleAnalyzer().analyze(dataset_)));
    }

    void
    finalChecks(Context &ctx) override
    {
        const std::string base = " of " + std::to_string(passes_) + " passes";
        ctx.report.check(std::string(scn_path) + " parses without "
                         "diagnostics",
                         parsed_.clean() && !parsed_.spec.machines.empty(),
                         std::to_string(parsed_.diagnostics.size()) +
                             " diagnostics, " +
                             std::to_string(parsed_.spec.machines.size()) +
                             " machine classes");
        ctx.report.check("sweep yields 90 cells", cell_mismatches_ == 0,
                         std::to_string(cell_mismatches_) + base +
                             " differ");
        ctx.report.check("frontier JSON identical across passes",
                         digest_mismatches_ == 0,
                         std::to_string(digest_mismatches_) + base +
                             " differ");
    }

    void
    layerMetrics(Context &ctx, double untraced_ms,
                 const std::map<std::string, double> &spans_ms,
                 const RegistryValues &registry) override
    {
        Report &out = ctx.report;
        std::vector<double> parse_ms;
        for (int i = 0; i < 5; ++i) {
            const double t0 = nowMs();
            scenario::parseScnFile(scn_path);
            parse_ms.push_back(nowMs() - t0);
        }
        const auto it = spans_ms.find("scenario.sweep");
        const double sweep_ms = it == spans_ms.end() ? 0.0 : it->second;
        const obs::MetricSample cell =
            histogramValue(registry, "aiwc.scenario.cell_ns");
        const double cell_sum_ms = static_cast<double>(cell.sum) / 1e6;

        out.metric("scenario.parse_ms", median(parse_ms), "ms");
        out.metric("scenario.sweep_ms", sweep_ms, "ms");
        out.metric("scenario.cell_ms_sum", cell_sum_ms, "ms");
        out.metric("scenario.cell_ms_max", static_cast<double>(cell.max) / 1e6,
                   "ms");
        out.metric("scenario.parallel_efficiency",
                   sweep_ms > 0 ? cell_sum_ms / (sweep_ms *
                                                 ctx.options.pool_threads)
                                : 0.0,
                   "ratio");
        for (const char *name : {"tasks", "migrations", "wakes",
                                 "sla_violations"})
            out.metric(std::string("scenario.") + name,
                       counterValue(registry,
                                    std::string("aiwc.scenario.") + name),
                       "count");
        reportClosure(ctx, "sweep", sweep_ms, untraced_ms);
    }

  private:
    static constexpr std::size_t expected_cells = 90;

    core::Dataset dataset_;
    scenario::ScnParseResult parsed_;
    std::unique_ptr<scenario::ScenarioRunner> runner_;
    const scenario::GreedyPackPolicy greedy_;
    const scenario::LoadBalancePolicy balance_;
    const scenario::EnergyFirstPolicy energy_;

    std::size_t cells_ = 0;
    std::size_t passes_ = 0;
    std::uint64_t digest_ = 0;
    std::size_t digest_mismatches_ = 0;
    std::size_t cell_mismatches_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSweep()
{
    return std::make_unique<Sweep>();
}

} // namespace perfbench
