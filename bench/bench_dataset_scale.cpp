/**
 * @file
 * Sec. II dataset-scale cross-check: job counts, user counts, filter
 * effect, and the monitoring data-path accounting — plus end-to-end
 * synthesis throughput benchmarks.
 */

#include "bench_common.hh"

#include <sstream>

#include "aiwc/core/csv_loader.hh"
#include "aiwc/core/timeline_analyzer.hh"
#include "aiwc/fmt/trace.hh"
#include "aiwc/telemetry/monitoring_load.hh"

namespace
{

using namespace aiwc;
namespace paper = core::paper;

void
printFigure(std::ostream &os)
{
    const auto &result = bench::trace();
    const double scale = bench::benchScale();

    bench::Comparison a("Sec. II: dataset scale (scaled targets)");
    a.row("total jobs", paper::total_jobs * scale,
          static_cast<double>(result.dataset.size()), 0);
    a.row("GPU jobs after 30 s filter",
          paper::gpu_jobs_after_filter * scale,
          static_cast<double>(result.dataset.gpuJobIndices().size()), 0);
    a.row("users", std::max(10.0, paper::users * scale),
          static_cast<double>(result.num_users), 0);
    a.row("time-series subset",
          std::max(50.0, paper::timeseries_jobs * scale),
          static_cast<double>([&] {
              std::size_t n = 0;
              for (const auto &r : result.dataset.records())
                  if (r.has_timeseries)
                      ++n;
              return n;
          }()),
          0);
    a.print(os);

    os << "== Sec. II: monitoring data path ==\n"
       << "central store: "
       << result.central_store_bytes / (1024 * 1024)
       << " MiB collected via epilog copy\n"
       << "peak node-local spool: "
       << result.peak_spool_bytes / (1024 * 1024) << " MiB\n\n";

    // The operational lesson, quantified: direct shared-FS writes vs.
    // node-local spooling with epilog copies.
    const auto cmp =
        telemetry::MonitoringLoadModel().analyze(result.dataset);
    os << "== Sec. II lesson: shared-FS monitoring load ==\n";
    TextTable t({"design", "peak write streams", "peak rows/s",
                 "largest burst (MiB)"});
    t.addRow({"direct to shared FS",
              formatNumber(cmp.direct.peak_streams, 0),
              formatNumber(cmp.direct.peak_rows_per_second, 0),
              formatNumber(cmp.direct.largest_burst_bytes / 1048576.0,
                           1)});
    t.addRow({"node-local spool + epilog",
              formatNumber(cmp.spooled.peak_streams, 0),
              formatNumber(cmp.spooled.peak_rows_per_second, 0),
              formatNumber(cmp.spooled.largest_burst_bytes / 1048576.0,
                           1)});
    t.print(os);
    os << "metadata-server relief: "
       << formatNumber(cmp.metadata_relief_factor, 0) << "x fewer "
       << "concurrent streams\n\n";

    // Sec. II: "usage of the system often increases closer to the
    // deadlines of popular deep learning conferences".
    const auto timeline =
        core::TimelineAnalyzer().analyze(result.dataset);
    std::vector<double> deadlines;
    for (const auto &d :
         workload::CalibrationProfile::supercloud().arrivals.deadlines)
        deadlines.push_back(d.day);
    os << "== Sec. II: conference-deadline load ==\n"
       << "submission peak-to-mean across days: "
       << formatNumber(timeline.submission_peak_to_mean, 2) << "x\n"
       << "deadline-window surge vs quiet-day median: "
       << formatNumber(timeline.deadlineSurge(deadlines), 2) << "x\n"
       << "peak GPUs busy: "
       << formatNumber(timeline.peak_gpus_busy, 0) << " of "
       << result.cluster_nodes * 2 << "\n\n";

    // On-disk footprint of the two interchange formats for this study.
    const auto trace_bytes = fmt::encodeTrace(result.dataset);
    std::stringstream csv;
    result.dataset.writeCsv(csv);
    const std::size_t csv_bytes = csv.str().size();
    os << "== binary trace vs CSV ==\n"
       << "binary trace: " << trace_bytes.size() / 1024 << " KiB, CSV: "
       << csv_bytes / 1024 << " KiB ("
       << formatNumber(static_cast<double>(csv_bytes) /
                           static_cast<double>(trace_bytes.size()),
                       2)
       << "x)\n\n";
}

void
BM_FullSynthesis(benchmark::State &state)
{
    workload::SynthesisOptions options;
    options.scale = 0.01;
    options.seed = 9;
    const auto profile = workload::CalibrationProfile::supercloud();
    for (auto _ : state) {
        const workload::TraceSynthesizer synthesizer(profile, options);
        auto result = synthesizer.run();
        benchmark::DoNotOptimize(result.dataset.size());
        options.seed += 1;
    }
}
BENCHMARK(BM_FullSynthesis)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void
BM_SynthesisNoTelemetry(benchmark::State &state)
{
    workload::SynthesisOptions options;
    options.scale = 0.01;
    options.seed = 9;
    options.telemetry = false;
    const auto profile = workload::CalibrationProfile::supercloud();
    for (auto _ : state) {
        const workload::TraceSynthesizer synthesizer(profile, options);
        auto result = synthesizer.run();
        benchmark::DoNotOptimize(result.dataset.size());
        options.seed += 1;
    }
}
BENCHMARK(BM_SynthesisNoTelemetry)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

void
BM_SynthesisNoScheduler(benchmark::State &state)
{
    workload::SynthesisOptions options;
    options.scale = 0.01;
    options.seed = 9;
    options.through_scheduler = false;
    const auto profile = workload::CalibrationProfile::supercloud();
    for (auto _ : state) {
        const workload::TraceSynthesizer synthesizer(profile, options);
        auto result = synthesizer.run();
        benchmark::DoNotOptimize(result.dataset.size());
        options.seed += 1;
    }
}
BENCHMARK(BM_SynthesisNoScheduler)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Import-path comparison: the binary trace format against the CSV
// parser it replaces as the hot load path.

void
BM_TraceEncode(benchmark::State &state)
{
    const auto &ds = bench::dataset();
    for (auto _ : state) {
        const auto bytes = fmt::encodeTrace(ds);
        benchmark::DoNotOptimize(bytes.data());
    }
}
BENCHMARK(BM_TraceEncode)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(40);

void
BM_TraceDecode(benchmark::State &state)
{
    const auto bytes = fmt::encodeTrace(bench::dataset());
    for (auto _ : state) {
        auto loaded = fmt::decodeTrace(bytes);
        benchmark::DoNotOptimize(loaded.dataset.size());
    }
}
BENCHMARK(BM_TraceDecode)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(40);

void
BM_CsvParse(benchmark::State &state)
{
    std::stringstream csv;
    bench::dataset().writeCsv(csv);
    const std::string text = csv.str();
    for (auto _ : state) {
        std::istringstream is(text);
        auto ds = core::loadDatasetCsv(is);
        benchmark::DoNotOptimize(ds.size());
    }
}
BENCHMARK(BM_CsvParse)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(40);

} // namespace

AIWC_BENCH_MAIN("Sec. II (dataset scale & monitoring)", printFigure)
