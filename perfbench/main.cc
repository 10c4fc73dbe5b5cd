/**
 * @file
 * Benchmark entry point: one workload per process.
 *
 *   perfbench --workload <study|analyze|ingest|sweep> --seed <n>
 *             --seconds <s> --trace <0|1> [--tiny] [--spans-out <path>]
 *
 * Untraced (--trace 0): set up several times (median is setup_s), run a
 * discarded warm-up pass, then timed passes until --seconds elapse, and
 * print the end-to-end metrics. Traced (--trace 1): alternate untraced
 * and traced passes for --seconds, then print the per-layer metrics and
 * the tracing overhead. Either way the last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "aiwc/common/parallel.hh"
#include "bench.hh"

namespace
{

using namespace perfbench;

/**
 * setup_s is the median of at least setup_reps set-ups. A set-up cheaper
 * than setup_batch_ms is timed in batches that double until they take
 * that long (each sample is its batch's mean), and sampling goes on for
 * setup_min_ms, so the median is neither one cold call nor clock noise.
 */
constexpr std::size_t setup_reps = 3;
constexpr double setup_batch_ms = 1.0;
constexpr double setup_min_ms = 50.0;

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--workload" && has_value) {
            opts.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            opts.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--spans-out" && has_value) {
            opts.spans_out = argv[++i];
        } else {
            std::cerr << "perfbench: unknown or incomplete argument '" << arg
                      << "'\n";
            return false;
        }
    }
    return opts.seconds > 0.0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "study")
        return makeStudy();
    if (name == "analyze")
        return makeAnalyze();
    if (name == "ingest")
        return makeIngest();
    if (name == "sweep")
        return makeSweep();
    return nullptr;
}

/**
 * Work per second over the timed passes: the median pass rate when the
 * passes repeat one input, total work over total time when each pass is
 * a new draw (so a heavy draw weighs what it costs).
 */
double
workPerSecond(const Workload &w, const std::vector<PassResult> &passes)
{
    double work = 0.0, ms = 0.0;
    std::vector<double> rates;
    for (const PassResult &p : passes) {
        work += p.work;
        ms += p.ms;
        rates.push_back(p.work / p.ms * 1000.0);
    }
    return w.variesInput() ? work / ms * 1000.0 : median(rates);
}

void
runUntraced(Workload &w, Context &ctx, double budget_ms)
{
    std::vector<PassResult> passes;
    std::string times;
    const double t0 = nowMs();
    do {
        passes.push_back(w.pass(ctx, passes.size()));
        times += " " + std::to_string(static_cast<long>(passes.back().ms));
    } while (nowMs() - t0 < budget_ms);

    const double per_s = workPerSecond(w, passes);
    std::cout << "pass ms:" << times << '\n'
              << w.throughputName() << " = " << per_s << " 1/s over "
              << passes.size() << " passes\n";
    ctx.report.metric("work_per_s", per_s, "1/s");
}

void
runTraced(Workload &w, Context &ctx, double budget_ms)
{
    std::vector<PassResult> plain, traced;
    std::map<std::string, std::vector<double>> span_samples;
    RegistryValues registry;
    const double t0 = nowMs();
    do {
        // Same input for both, so the pair differs only by tracing.
        const std::size_t input = plain.size();
        plain.push_back(w.pass(ctx, input));

        ctx.spans.enable(true);
        ctx.spans.beginPass();
        resetRegistry();
        traced.push_back(w.pass(ctx, input));
        registry = readRegistry();
        ctx.spans.enable(false);
        for (const auto &[name, ms] : ctx.spans.passTotals())
            span_samples[name].push_back(ms);
    } while (nowMs() - t0 < budget_ms);

    std::map<std::string, double> spans_ms;
    for (const auto &[name, samples] : span_samples)
        spans_ms[name] = median(samples);

    const double plain_rate = workPerSecond(w, plain);
    const double traced_rate = workPerSecond(w, traced);
    ctx.report.metric("obs.trace_overhead_pct",
                      (plain_rate / traced_rate - 1.0) * 100.0, "%");
    ctx.report.metric("core.paper_log_err", w.paperLogErr(), "ln");
    std::vector<double> plain_ms;
    for (const PassResult &p : plain)
        plain_ms.push_back(p.ms);
    w.layerMetrics(ctx, median(plain_ms), spans_ms, registry);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        std::cerr << "usage: perfbench --workload <study|analyze|ingest|"
                     "sweep> --seed <n> --seconds <s> --trace <0|1> "
                     "[--tiny] [--spans-out <path>]\n";
        return 2;
    }
    std::unique_ptr<Workload> workload = makeWorkload(opts.workload);
    if (!workload) {
        std::cerr << "perfbench: unknown workload '" << opts.workload
                  << "'\n";
        return 2;
    }

    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    opts.pool_threads = std::clamp(hw, 1, 4);
    aiwc::setGlobalThreadCount(opts.pool_threads);

    Spans spans;
    Report report;
    Context ctx{opts, spans, report};
    std::cout << "perfbench " << opts.workload << " seed=" << opts.seed
              << " seconds=" << opts.seconds << " trace=" << opts.trace
              << " pool_threads=" << opts.pool_threads
              << (opts.tiny ? " (tiny sizes)" : "") << '\n';

    std::vector<double> setup_s;
    std::size_t batch = 1;
    const double setup_t0 = nowMs();
    do {
        const double t0 = nowMs();
        for (std::size_t i = 0; i < batch; ++i)
            workload->setup(ctx);
        const double ms = nowMs() - t0;
        setup_s.push_back(ms / static_cast<double>(batch) / 1000.0);
        if (ms < setup_batch_ms)
            batch *= 2;
    } while (!opts.trace && (setup_s.size() < setup_reps ||
                             nowMs() - setup_t0 < setup_min_ms));

    workload->pass(ctx, 0);  // warm-up, discarded

    const double budget_ms = opts.seconds * 1000.0;
    if (opts.trace)
        runTraced(*workload, ctx, budget_ms);
    else
        runUntraced(*workload, ctx, budget_ms);

    workload->finalChecks(ctx);
    if (!opts.trace) {
        report.metric("setup_s", median(setup_s), "s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
    }
    if (opts.trace && !opts.spans_out.empty())
        spans.writeJson(opts.spans_out);
    report.finish();
    return 0;
}
