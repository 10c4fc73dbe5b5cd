/**
 * @file
 * Quickstart: synthesize a scaled-down Supercloud study, replay it
 * through the scheduler, and print the full characterization report —
 * every figure of the paper as a text table.
 *
 * Usage: quickstart [--stream] [scale] [seed]
 *   --stream  single-pass bounded-memory mode: replay the trace
 *             through aiwc::stream sketches instead of materializing
 *             a Dataset, and print the streaming snapshot
 *   scale     fraction of the 125-day study to synthesize (default 0.05)
 *   seed      RNG seed (default 42)
 */

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "aiwc/core/report_writer.hh"
#include "aiwc/sim/cluster_factory.hh"
#include "aiwc/stream/pipeline.hh"
#include "aiwc/workload/trace_synthesizer.hh"

int
main(int argc, char **argv)
{
    using namespace aiwc;

    bool stream_mode = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stream") == 0)
            stream_mode = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;

    workload::SynthesisOptions options;
    options.scale = argc > 1 ? std::atof(argv[1]) : 0.05;
    options.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

    std::cout << "== Table I: system under study ==\n";
    sim::printSpec(sim::supercloudSpec(), std::cout);

    const auto profile = workload::CalibrationProfile::supercloud();
    const workload::TraceSynthesizer synthesizer(profile, options);
    std::cout << "\nSynthesizing a " << options.scale
              << "x study: " << synthesizer.scaledUsers() << " users, "
              << synthesizer.scaledNodes() << " nodes...\n";

    if (stream_mode) {
        // Bounded-memory path: no Dataset, every record folds into
        // the sketch pipeline the moment the replay finishes it.
        stream::StreamPipeline pipeline;
        const auto replay = synthesizer.runStreaming(
            [&](core::JobRecord &&rec) { pipeline.ingest(rec); });
        std::cout << "replayed " << replay.records
                  << " jobs without materializing a dataset; sketch "
                     "footprint "
                  << pipeline.sketchBytes() << " B\n\n";
        pipeline.snapshot().print(std::cout);
        return 0;
    }

    const auto result = synthesizer.run();
    std::cout << "jobs: " << result.dataset.size()
              << " (GPU jobs >=30s: "
              << result.dataset.gpuJobIndices().size()
              << "), GPU-hours: "
              << static_cast<long>(result.dataset.totalGpuHours())
              << ", backfilled starts: "
              << result.scheduler_stats.backfilled << "\n"
              << "monitoring central store: "
              << result.central_store_bytes / (1024 * 1024)
              << " MiB, peak node spool: "
              << result.peak_spool_bytes / (1024 * 1024) << " MiB\n\n";

    const core::ReportWriter writer(std::cout);
    writer.printFullStudy(result.dataset);
    return 0;
}
