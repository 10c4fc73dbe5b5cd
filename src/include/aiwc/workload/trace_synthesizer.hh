/**
 * @file
 * End-to-end trace synthesis: users -> arrivals -> jobs -> scheduler
 * replay -> telemetry -> the merged study dataset.
 *
 * This is the closed loop DESIGN.md describes: the produced Dataset is
 * exactly what the paper's instrumentation would have collected from a
 * system with the calibrated workload, including emergent quantities
 * (queue waits, GPU-hours concentration) that no generator parameter
 * sets directly.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "aiwc/core/dataset.hh"
#include "aiwc/sched/slurm_scheduler.hh"
#include "aiwc/telemetry/job_profile.hh"
#include "aiwc/workload/calibration.hh"

namespace aiwc::workload
{

/** Knobs of one synthesis run. */
struct SynthesisOptions
{
    std::uint64_t seed = 42;
    /**
     * Linear scale on the whole experiment: job volume, user count,
     * cluster size, and the time-series subset all scale together, so
     * the load/capacity ratio — and with it the queue-wait physics —
     * is preserved. 1.0 reproduces the paper's 125-day study.
     */
    double scale = 1.0;
    /**
     * Replay through the Slurm-like scheduler (queue waits emerge).
     * When false, jobs start at their submit instant — faster, for
     * analyses that do not involve waiting.
     */
    bool through_scheduler = true;
    /** Generate GPU telemetry (off for scheduling-only studies). */
    bool telemetry = true;
};

/** Everything one synthesis run produced. */
struct SynthesisResult
{
    core::Dataset dataset;
    /** Ground-truth telemetry profiles, indexed by JobId. */
    std::vector<telemetry::JobProfile> profiles;
    sched::SchedulerStats scheduler_stats;
    int num_users = 0;
    int cluster_nodes = 0;
    /** Monitoring data-path accounting (Sec. II lessons). */
    std::uint64_t central_store_bytes = 0;
    std::uint64_t peak_spool_bytes = 0;
};

/**
 * Receives each finished JobRecord as the replay emits it (streaming
 * replay mode). The record is moved in; the sink owns it.
 */
using RecordSink = std::function<void(core::JobRecord &&)>;

/**
 * What a streaming replay reports when no Dataset is materialized:
 * the run-level aggregates of SynthesisResult minus the records
 * themselves (those went to the sink) and the telemetry profiles
 * (internal scaffolding of the run).
 */
struct StreamReplayResult
{
    /** Records pushed into the sink. */
    std::uint64_t records = 0;
    sched::SchedulerStats scheduler_stats;
    int num_users = 0;
    int cluster_nodes = 0;
    std::uint64_t central_store_bytes = 0;
    std::uint64_t peak_spool_bytes = 0;
};

/** Runs the full synthesis pipeline. */
class TraceSynthesizer
{
  public:
    TraceSynthesizer(const CalibrationProfile &profile,
                     const SynthesisOptions &options);

    /** Produce one complete trace. Deterministic in (profile, seed). */
    SynthesisResult run() const;

    /**
     * Streaming replay: identical simulation to run(), but each
     * JobRecord is pushed into @p sink once the batch of finished jobs
     * it belongs to has its telemetry sampled, and no Dataset is ever
     * materialized — the peak record footprint is one batch. Record
     * values match run()'s exactly for the same (profile, seed);
     * emission order is the replay's completion order (submit order
     * when through_scheduler is off), deterministic for a fixed seed.
     */
    StreamReplayResult runStreaming(const RecordSink &sink) const;

    /**
     * Produce @p count independent replicate traces, fanned across the
     * global thread pool. Replicate r uses replicateSeed(seed, r), so
     * the result vector is deterministic in (profile, options, count)
     * for any thread count, and replicate 0 matches run().
     */
    std::vector<SynthesisResult> runReplicates(int count) const;

    /**
     * Seed of replicate @p replicate of a base seed. Replicate 0 is
     * the base seed itself; later replicates are a splitmix64-style
     * mix so nearby replicate indices give uncorrelated streams.
     */
    static std::uint64_t replicateSeed(std::uint64_t base, int replicate);

    /** Scaled counts this run will use (exposed for tests). */
    int scaledUsers() const;
    int scaledNodes() const;
    int scaledTimeseriesJobs() const;

  private:
    /**
     * The shared synthesis body: generate, replay, and hand every
     * finished record to @p sink. Fills every SynthesisResult field
     * except the dataset, which is the sink's business.
     */
    void runImpl(SynthesisResult &result, const RecordSink &sink) const;

    CalibrationProfile profile_;
    SynthesisOptions options_;
};

} // namespace aiwc::workload

