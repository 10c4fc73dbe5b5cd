/**
 * @file
 * Determinism self-check: the entire pipeline — users, arrivals,
 * scheduler replay, telemetry — must be a pure function of (profile,
 * seed). Two runs with the same seed must produce byte-identical
 * completion records; a different seed must not (guards against the
 * digest accidentally ignoring the data).
 *
 * Any hidden nondeterminism (iteration over an unordered_map feeding
 * the event order, uninitialised reads, time-of-day seeding) breaks
 * every figure's reproducibility long before it breaks a unit test;
 * this harness catches it wholesale.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "aiwc/common/parallel.hh"
#include "aiwc/obs/metrics.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/core/bottleneck_analyzer.hh"
#include "aiwc/core/csv_loader.hh"
#include "aiwc/fmt/trace.hh"
#include "aiwc/core/correlation_analyzer.hh"
#include "aiwc/core/lifecycle_analyzer.hh"
#include "aiwc/core/multi_gpu_analyzer.hh"
#include "aiwc/core/phase_analyzer.hh"
#include "aiwc/core/power_analyzer.hh"
#include "aiwc/core/service_time_analyzer.hh"
#include "aiwc/core/timeline_analyzer.hh"
#include "aiwc/opportunity/checkpoint_planner.hh"
#include "aiwc/opportunity/colocation_advisor.hh"
#include "aiwc/opportunity/mig_planner.hh"
#include "aiwc/opportunity/multi_tier_planner.hh"
#include "aiwc/opportunity/power_cap_planner.hh"
#include "aiwc/scenario/runner.hh"
#include "aiwc/core/user_behavior_analyzer.hh"
#include "aiwc/core/utilization_analyzer.hh"
#include "aiwc/stream/pipeline.hh"
#include "aiwc/workload/trace_synthesizer.hh"

namespace aiwc
{
namespace
{

/** FNV-1a 64-bit over a string — stable across platforms and runs. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Every sample of an empirical CDF, in order, then a separator. */
void
writeCdf(std::ostream &os, const stats::EmpiricalCdf &cdf)
{
    for (const double v : cdf.sorted())
        os << v << ':';
    os << '|';
}

/**
 * Digest of every completion record. Hexfloat formatting keeps the
 * serialization byte-exact: any ULP of drift between runs changes the
 * digest.
 */
std::uint64_t
completionDigest(const core::Dataset &dataset)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const auto &r : dataset.records()) {
        os << r.id << '|' << r.user << '|'
           << static_cast<int>(r.interface) << '|'
           << static_cast<int>(r.terminal) << '|'
           << static_cast<int>(r.true_class) << '|' << r.submit_time
           << '|' << r.start_time << '|' << r.end_time << '|'
           << r.walltime_limit << '|' << r.gpus << '|' << r.cpu_slots
           << '|' << r.ram_gb;
        for (const auto &gpu : r.per_gpu) {
            os << '|' << gpu.sm.mean() << ':' << gpu.sm.min() << ':'
               << gpu.sm.max() << ':' << gpu.power_watts.mean();
        }
        os << '\n';
    }
    return fnv1a(os.str());
}

workload::SynthesisResult
synthesize(std::uint64_t seed)
{
    workload::SynthesisOptions options;
    options.seed = seed;
    options.scale = 0.04;
    const auto profile = workload::CalibrationProfile::supercloud();
    return workload::TraceSynthesizer(profile, options).run();
}

TEST(Determinism, SameSeedSameCompletionDigest)
{
    const auto first = synthesize(1234);
    const auto second = synthesize(1234);
    ASSERT_GT(first.dataset.size(), 0u);
    ASSERT_EQ(first.dataset.size(), second.dataset.size());
    EXPECT_EQ(completionDigest(first.dataset),
              completionDigest(second.dataset));
    // Scheduler-side aggregates must agree too, not just the records.
    EXPECT_EQ(first.scheduler_stats.started,
              second.scheduler_stats.started);
    EXPECT_EQ(first.scheduler_stats.backfilled,
              second.scheduler_stats.backfilled);
    EXPECT_DOUBLE_EQ(first.scheduler_stats.gpu_hours,
                     second.scheduler_stats.gpu_hours);
}

TEST(Determinism, ReplayMatchesPinnedDigest)
{
    // Every other case compares two runs of the same build, so a
    // reordered event loop would pass them all. These constants pin the
    // replay's output across commits: a change to the event core, the
    // scheduler or the synthesizer that moves one completion record
    // fails here. Re-pin only for an intended behaviour change.
    const auto trace = synthesize(1234);
    EXPECT_EQ(completionDigest(trace.dataset), 0x67c8c619fb696ebaull);
    EXPECT_EQ(trace.scheduler_stats.started, 2690u);
    EXPECT_EQ(trace.scheduler_stats.backfilled, 719u);
    EXPECT_EQ(trace.scheduler_stats.gpu_hours, 0x1.b9131fc554aeap+13);
}

TEST(Determinism, LargerClusterReplayMatchesPinnedDigest)
{
    // Scale 0.04 is a 9-node cluster; at 0.1 (22 nodes) the replay also
    // spreads multi-GPU jobs across neighbouring nodes and grants CPU
    // jobs several whole nodes. Telemetry is off so the digest covers
    // the replay alone. The scheduler counters are pinned with the
    // records: a change that keeps every decision but probes placement
    // a different number of times shows up here.
    auto &registry = obs::MetricsRegistry::global();
    auto &failures = registry.counter("aiwc.sched.placement_failures");
    auto &attempts = registry.counter("aiwc.sched.backfill_attempts");
    auto &passes = registry.counter("aiwc.sched.backfill_passes");
    const std::uint64_t failures_before = failures.value();
    const std::uint64_t attempts_before = attempts.value();
    const std::uint64_t passes_before = passes.value();

    workload::SynthesisOptions options;
    options.seed = 42;
    options.scale = 0.1;
    options.telemetry = false;
    const auto trace = workload::TraceSynthesizer(
        workload::CalibrationProfile::supercloud(), options).run();

    EXPECT_EQ(trace.cluster_nodes, 22);
    EXPECT_EQ(completionDigest(trace.dataset), 0x4d8bcf2cc60b3471ull);
    EXPECT_EQ(trace.scheduler_stats.started, 7726u);
    EXPECT_EQ(trace.scheduler_stats.backfilled, 5262u);
    EXPECT_EQ(trace.scheduler_stats.gpu_hours, 0x1.1d4344f0a0ce1p+15);
    EXPECT_EQ(failures.value() - failures_before, 2444999u);
    EXPECT_EQ(attempts.value() - attempts_before, 2736004u);
    EXPECT_EQ(passes.value() - passes_before, 118018u);
}

TEST(Determinism, DifferentSeedDifferentDigest)
{
    const auto a = synthesize(1234);
    const auto b = synthesize(4321);
    EXPECT_NE(completionDigest(a.dataset), completionDigest(b.dataset));
}

TEST(Determinism, DigestIsOrderAndValueSensitive)
{
    // Unit-check the digest itself: permuted and perturbed inputs must
    // hash differently, or the self-check above proves nothing.
    EXPECT_NE(fnv1a("a|b"), fnv1a("b|a"));
    EXPECT_NE(fnv1a("1.0"), fnv1a("1.1"));
    EXPECT_EQ(fnv1a("stable"), fnv1a("stable"));
}

/**
 * Digest of a full analysis pass: every analyzer that fans work across
 * the pool contributes its report, serialized as hexfloat so a single
 * ULP of thread-count-dependent drift flips the hash.
 */
std::uint64_t
analysisDigest(const core::Dataset &dataset)
{
    std::ostringstream os;
    os << std::hexfloat;

    const auto util = core::UtilizationAnalyzer().analyze(dataset);
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        os << util.sm_pct.quantile(q) << '|'
           << util.membw_pct.quantile(q) << '|'
           << util.memsize_pct.quantile(q) << '|';
    }

    const auto service = core::ServiceTimeAnalyzer().analyze(dataset);
    for (double q : {0.25, 0.5, 0.75, 0.95}) {
        os << service.gpu_runtime_min.quantile(q) << '|'
           << service.gpu_wait_s.quantile(q) << '|'
           << service.cpu_runtime_min.quantile(q) << '|';
    }

    const auto life = core::LifecycleAnalyzer().analyze(dataset);
    for (int c = 0; c < num_lifecycles; ++c) {
        const auto i = static_cast<std::size_t>(c);
        os << life.job_mix[i] << '|' << life.hour_mix[i] << '|'
           << life.median_runtime_min[i] << '|';
    }
    for (const auto &u : life.users)
        os << u.user << ':' << u.jobs << ':' << u.gpu_hours << '|';

    const auto bottleneck = core::BottleneckAnalyzer().analyze(dataset);
    for (double s : bottleneck.single)
        os << s << '|';
    for (double p : bottleneck.pairs)
        os << p << '|';

    const auto power = core::PowerAnalyzer().analyze(dataset);
    for (double q : {0.5, 0.9, 0.99})
        os << power.avg_watts.quantile(q) << '|'
           << power.max_watts.quantile(q) << '|';

    const auto users = core::UserBehaviorAnalyzer().analyze(dataset);
    for (const auto &u : users.users) {
        os << u.user << ':' << u.jobs << ':' << u.gpu_hours << ':'
           << u.avg_sm_pct << ':' << u.runtime_cov_pct << '|';
    }

    const auto corr = core::CorrelationAnalyzer().analyze(users.users);
    for (const auto &f : corr.by_jobs.features)
        os << f.coefficient << '|';
    for (const auto &f : corr.by_gpu_hours.features)
        os << f.coefficient << '|';

    const auto phase = core::PhaseAnalyzer().analyze(dataset);
    os << phase.jobs << '|';
    for (const auto *cdf :
         {&phase.active_fraction_pct, &phase.idle_interval_cov_pct,
          &phase.active_interval_cov_pct, &phase.active_sm_cov_pct,
          &phase.active_membw_cov_pct, &phase.active_memsize_cov_pct})
        writeCdf(os, *cdf);

    const auto multi = core::MultiGpuAnalyzer().analyze(dataset);
    for (int b = 0; b < core::num_size_buckets; ++b) {
        const auto i = static_cast<std::size_t>(b);
        os << multi.job_fraction[i] << '|' << multi.hour_fraction[i]
           << '|' << multi.median_wait_s[i] << '|';
    }
    os << multi.users_multi << '|' << multi.users_3plus << '|'
       << multi.users_9plus << '|' << multi.idle_gpu_job_fraction << '|';
    for (const auto *cdf :
         {&multi.sm_cov_all_pct, &multi.membw_cov_all_pct,
          &multi.memsize_cov_all_pct, &multi.sm_cov_active_pct,
          &multi.membw_cov_active_pct, &multi.memsize_cov_active_pct})
        writeCdf(os, *cdf);

    const auto timeline = core::TimelineAnalyzer().analyze(dataset);
    for (const auto &bin : timeline.bins) {
        os << bin.start << ':' << bin.submissions << ':'
           << bin.mean_gpus_busy << ':' << bin.mean_cpu_nodes_busy << '|';
    }
    os << timeline.submission_peak_to_mean << '|'
       << timeline.peak_gpus_busy << '|';

    for (const auto &p : opportunity::CheckpointPlanner().sweep(dataset)) {
        os << p.lost_hours_baseline << ':' << p.lost_hours_with_ckpt
           << ':' << p.overhead_hours << ':' << p.net_saving_fraction
           << '|';
    }

    for (const auto &p : opportunity::PowerCapPlanner().plan(dataset)) {
        os << p.unimpacted << ':' << p.impacted_by_avg << ':'
           << p.mean_slowdown << ':' << p.weighted_slowdown << ':'
           << p.throughput_gain << '|';
    }

    const auto tier = opportunity::MultiTierPlanner().plan(dataset);
    os << tier.shifted_hour_fraction << '|' << tier.mean_shifted_slowdown
       << '|' << tier.cost_saving_fraction << '|';
    for (double s : tier.shifted_jobs)
        os << s << '|';

    const auto coloc = opportunity::ColocationAdvisor().analyze(dataset);
    os << coloc.gpu_jobs << '|' << coloc.paired_job_fraction << '|'
       << coloc.gpu_hours_saved_fraction << '|'
       << coloc.mean_pair_slowdown << '|';
    writeCdf(os, coloc.pair_slowdown);

    const auto mig = opportunity::MigPlanner().plan(dataset);
    os << mig.jobs << '|' << mig.mean_slices << '|' << mig.full_gpu_jobs
       << '|' << mig.peak_gpus_exclusive << '|' << mig.peak_gpus_mig
       << '|' << mig.gpu_demand_reduction << '|'
       << mig.repartition_events << '|' << mig.reconfig_overhead_hours
       << '|';

    return fnv1a(os.str());
}

TEST(Determinism, AnalysisDigestIsThreadCountInvariant)
{
    // The tentpole guarantee: parallelReduce merges per-shard
    // accumulators in shard-index order, so 1 thread and 8 threads
    // must produce bit-identical analysis output. This covers every
    // parallelized analyzer end to end.
    const auto trace = synthesize(1234);
    const int before = globalThreadCount();

    setGlobalThreadCount(1);
    const auto serial = analysisDigest(trace.dataset);
    setGlobalThreadCount(8);
    const auto threaded = analysisDigest(trace.dataset);
    setGlobalThreadCount(before);

    EXPECT_EQ(serial, threaded);
}

TEST(Determinism, AnalysisMatchesPinnedDigest)
{
    // The thread-count case above compares two passes of the same
    // build. This constant pins every analyzer's and planner's output
    // across commits: a change to a selector, a kernel or a planner
    // that moves one reported bit fails here. Re-pin only for an
    // intended behaviour change.
    const auto trace = synthesize(1234);
    EXPECT_EQ(analysisDigest(trace.dataset), 0xb01f9ba6f2cda44aull);
}

TEST(Determinism, InstrumentationIsBehaviorNeutral)
{
    // The observability layer's core promise: enabling span collection
    // must not change a single output bit — metrics and traces observe
    // the pipeline, they never feed back into it. Synthesize and
    // analyze with tracing off, then with tracing on; both digests
    // must match exactly.
    obs::setTraceEnabled(false);
    const auto baseline = synthesize(1234);
    const auto baseline_analysis = analysisDigest(baseline.dataset);

    obs::setTraceEnabled(true);
    const auto traced = synthesize(1234);
    const auto traced_analysis = analysisDigest(traced.dataset);
    const std::size_t recorded = obs::traceEventCount();
    obs::setTraceEnabled(false);
    obs::clearTraceEvents();

    EXPECT_GT(recorded, 0u);  // tracing actually ran
    EXPECT_EQ(completionDigest(baseline.dataset),
              completionDigest(traced.dataset));
    EXPECT_EQ(baseline_analysis, traced_analysis);
}

/**
 * Digest of a streaming snapshot: every rendered CDF sample, cap
 * impact, and per-user aggregate, hexfloat-serialized so any
 * thread-count-dependent ULP in the sketch state flips the hash.
 */
std::uint64_t
snapshotDigest(const stream::SnapshotReport &snap)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << snap.rows << '|' << snap.gpu_jobs << '|' << snap.cpu_jobs
       << '|' << snap.users << '|' << snap.epsilon << '|';
    writeCdf(os, snap.gpu_runtime_min);
    writeCdf(os, snap.cpu_runtime_min);
    writeCdf(os, snap.gpu_wait_s);
    writeCdf(os, snap.sm_pct);
    writeCdf(os, snap.membw_pct);
    writeCdf(os, snap.memsize_pct);
    writeCdf(os, snap.avg_watts);
    writeCdf(os, snap.max_watts);
    writeCdf(os, snap.user_avg_runtime_min);
    writeCdf(os, snap.user_avg_sm_pct);
    for (const auto &c : snap.caps) {
        os << c.cap_watts << ':' << c.unimpacted << ':'
           << c.impacted_by_max << ':' << c.impacted_by_avg << '|';
    }
    os << snap.top5_job_share << '|' << snap.top20_job_share << '|'
       << snap.median_jobs_per_user << '|';
    for (const auto &e : snap.top_users_by_gpu_hours)
        os << e.key << ':' << e.count << ':' << e.error << '|';
    return fnv1a(os.str());
}

TEST(Determinism, StreamSnapshotIsThreadCountInvariant)
{
    // The streaming pipeline rides the same parallelReduce contract as
    // the batch analyzers: per-shard pipelines merged in shard-index
    // order, so a snapshot of a parallel ingest must be byte-identical
    // at any thread count.
    const auto trace = synthesize(1234);
    ASSERT_GT(trace.dataset.size(), 0u);
    const int before = globalThreadCount();

    setGlobalThreadCount(1);
    const auto serial =
        stream::ingestParallel(trace.dataset.records()).snapshot();
    setGlobalThreadCount(8);
    const auto threaded =
        stream::ingestParallel(trace.dataset.records()).snapshot();
    setGlobalThreadCount(before);

    EXPECT_EQ(serial.rows, trace.dataset.size());
    EXPECT_EQ(snapshotDigest(serial), snapshotDigest(threaded));
}

TEST(Determinism, BinaryTraceMatchesCsvAcrossThreadCounts)
{
    // The trace-format guarantee: a Dataset loaded from the binary
    // trace must drive every analyzer to byte-identical output vs the
    // CSV-parsed dataset it encodes, at any thread count. Raw
    // accumulator serialization (not derived moments) is what makes
    // this exact rather than epsilon-close.
    const auto trace = synthesize(1234);
    std::stringstream csv;
    trace.dataset.writeCsv(csv);
    const core::Dataset from_csv = core::loadDatasetCsv(csv);
    ASSERT_GT(from_csv.size(), 0u);

    const auto encoded = fmt::encodeTrace(from_csv);
    auto loaded = fmt::decodeTrace(encoded);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    ASSERT_EQ(loaded.dataset.size(), from_csv.size());
    EXPECT_EQ(fmt::contentDigest(from_csv),
              fmt::contentDigest(loaded.dataset));
    EXPECT_EQ(completionDigest(from_csv),
              completionDigest(loaded.dataset));

    const int before = globalThreadCount();
    setGlobalThreadCount(1);
    const auto csv_serial = analysisDigest(from_csv);
    const auto bin_serial = analysisDigest(loaded.dataset);
    setGlobalThreadCount(8);
    const auto csv_threaded = analysisDigest(from_csv);
    const auto bin_threaded = analysisDigest(loaded.dataset);
    setGlobalThreadCount(before);

    EXPECT_EQ(csv_serial, bin_serial);
    EXPECT_EQ(csv_threaded, bin_threaded);
    EXPECT_EQ(csv_serial, csv_threaded);
}

/** A small sweep over the default mixes with every built-in policy. */
std::string
sweepJson(const core::Dataset &dataset)
{
    scenario::ScenarioSpec spec;
    scenario::MachineClassSpec cls;
    cls.name = "det-node";
    cls.count = 4;
    cls.cores = 96;
    cls.memory_gb = 384.0;
    cls.gpus = 2;
    spec.machines = {cls};
    scenario::SweepOptions options;
    options.seed = 2022;
    const scenario::ScenarioRunner runner(spec, options);
    const scenario::GreedyPackPolicy greedy;
    const scenario::LoadBalancePolicy balance;
    const scenario::EnergyFirstPolicy energy;
    const std::vector<const scenario::SchedulingPolicy *> policies{
        &greedy, &balance, &energy};
    return runner.sweep(dataset, scenario::defaultTaskMixes(), policies)
        .toJson();
}

TEST(Determinism, ScenarioSweepIsThreadCountInvariant)
{
    // The scenario sweep rides parallelFor with disjoint per-cell
    // writes: the frontier report must be byte-identical at any thread
    // count, and identical whether the dataset arrived via CSV or the
    // binary trace — task typing is keyed on record content, never on
    // load order or source format.
    const auto trace = synthesize(1234);
    std::stringstream csv;
    trace.dataset.writeCsv(csv);
    const core::Dataset from_csv = core::loadDatasetCsv(csv);
    ASSERT_GT(from_csv.size(), 0u);
    auto from_binary = fmt::decodeTrace(fmt::encodeTrace(from_csv));
    ASSERT_TRUE(from_binary.ok()) << from_binary.error;

    const int before = globalThreadCount();
    setGlobalThreadCount(1);
    const std::string csv_serial = sweepJson(from_csv);
    setGlobalThreadCount(8);
    const std::string csv_threaded = sweepJson(from_csv);
    const std::string bin_threaded = sweepJson(from_binary.dataset);
    setGlobalThreadCount(before);

    EXPECT_EQ(csv_serial, csv_threaded);
    EXPECT_EQ(csv_threaded, bin_threaded);
}

TEST(Determinism, SynthesisIsThreadCountInvariant)
{
    // Replicate fan-out must not perturb the traces themselves.
    const int before = globalThreadCount();
    const auto profile = workload::CalibrationProfile::supercloud();
    workload::SynthesisOptions options;
    options.scale = 0.02;
    const workload::TraceSynthesizer synthesizer(profile, options);

    setGlobalThreadCount(1);
    const auto serial = synthesizer.runReplicates(2);
    setGlobalThreadCount(8);
    const auto threaded = synthesizer.runReplicates(2);
    setGlobalThreadCount(before);

    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
        EXPECT_EQ(completionDigest(serial[r].dataset),
                  completionDigest(threaded[r].dataset));
    }
}

TEST(Determinism, MainThreadSynthesisIsThreadCountInvariant)
{
    // run() called from a non-worker thread samples telemetry across
    // the pool in batches (runReplicates above runs each run() on a
    // worker, where the fan-out is inline). Scale 0.04 gives ~2.7k
    // records: several full batches plus a partial one.
    const int before = globalThreadCount();
    const auto profile = workload::CalibrationProfile::supercloud();
    for (const bool through_scheduler : {true, false}) {
        SCOPED_TRACE(through_scheduler ? "scheduler replay"
                                       : "no scheduler");
        workload::SynthesisOptions options;
        options.seed = 1234;
        options.scale = 0.04;
        options.through_scheduler = through_scheduler;
        const workload::TraceSynthesizer synthesizer(profile, options);

        setGlobalThreadCount(1);
        const auto serial = synthesizer.run();
        setGlobalThreadCount(8);
        const auto threaded = synthesizer.run();
        std::vector<JobId> streamed;
        synthesizer.runStreaming([&streamed](core::JobRecord &&rec) {
            streamed.push_back(rec.id);
        });
        setGlobalThreadCount(before);

        ASSERT_GT(serial.dataset.size(), 1024u);
        EXPECT_EQ(fmt::contentDigest(serial.dataset),
                  fmt::contentDigest(threaded.dataset));
        EXPECT_EQ(completionDigest(serial.dataset),
                  completionDigest(threaded.dataset));

        // The sink sees records in the replay's completion order.
        std::vector<JobId> ordered;
        for (const auto &r : threaded.dataset.records())
            ordered.push_back(r.id);
        EXPECT_EQ(streamed, ordered);
    }
}

} // namespace
} // namespace aiwc
