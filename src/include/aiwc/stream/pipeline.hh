/**
 * @file
 * The bounded-memory streaming characterization pipeline: JobRecords
 * in, SnapshotReport out at any moment. This is the online
 * counterpart of the batch Dataset-plus-analyzer path — the
 * architectural hinge for traces far larger than memory, where results
 * must stay live while ingestion continues (ROADMAP north star). It
 * retains eight KLL sketches, each one a snapshot renders (three
 * service-time, three utilization, two power), the per-user table with
 * its heavy-hitters sketch, and three row counters.
 *
 * The pipeline itself is a mergeable accumulator (CONTRIBUTING rule):
 * ingest() folds one record, merge() combines two pipelines, and
 * ingestParallel() shard-fans a batch through parallelReduce with
 * shard-index-order merges — so the resulting state, and therefore
 * every snapshot, is byte-identical at any thread count. Every
 * pipeline has the one geometry in stream/geometry.hh, so any two
 * pipelines merge.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "aiwc/base/mutex.hh"
#include "aiwc/base/thread_annotations.hh"
#include "aiwc/core/job_record.hh"
#include "aiwc/stream/power.hh"
#include "aiwc/stream/service_time.hh"
#include "aiwc/stream/snapshot.hh"
#include "aiwc/stream/user_behavior.hh"
#include "aiwc/stream/utilization.hh"

namespace aiwc::stream
{

/**
 * Single-pass streaming pipeline over JobRecords. Memory is bounded by
 * the sketch geometry (plus O(active users) for the per-user table),
 * independent of how many records flow through; sketchBytes() reports
 * the current footprint and is exported as the aiwc.sketch.bytes
 * gauge at snapshot time.
 *
 * Synchronization contract: ingest(), merge(), snapshot(), rows(),
 * and sketchBytes() serialize on an internal mutex, so one pipeline
 * may be fed and queried from different threads concurrently — the
 * serving pattern aiwc::svc relies on. A snapshot observes a state
 * with whole records applied, never a torn one. The lock is per
 * pipeline and uncontended in the parallelReduce shard fan-out (each
 * shard owns a private copy), so the deterministic-parallelism hot
 * path pays only an uncontended acquire. The accessor methods below
 * the snapshot section (serviceTime() etc.) return references into
 * the live state and are for single-threaded harness use only.
 */
class StreamPipeline
{
  public:
    StreamPipeline() = default;

    /** Copies lock @p other, so a concurrently-fed source is safe. */
    StreamPipeline(const StreamPipeline &other);
    StreamPipeline &operator=(const StreamPipeline &other);

    /** Fold one record into every analyzer. */
    void ingest(const core::JobRecord &rec);

    /** Fold another pipeline in; @p other must not be this one. */
    void merge(const StreamPipeline &other);

    /**
     * Render the current state as a SnapshotReport. Const — a
     * snapshot never perturbs the stream state, which the determinism
     * harness checks by digesting snapshots mid- and post-stream.
     * Safe to call while another thread is ingesting: the internal
     * mutex guarantees the rendered state sits on a record boundary.
     */
    SnapshotReport snapshot() const;

    /** Records ingested so far. */
    std::uint64_t rows() const;

    /** Current sketch + per-user-table footprint, bytes. */
    std::size_t sketchBytes() const;

    // Per-figure analyzers, exposed for the equivalence harnesses.
    // Invariant: these lock-free reads are sanctioned for the
    // single-threaded harness only — the caller owns the pipeline and
    // no ingest/merge/snapshot runs concurrently (class comment), so
    // the guarded state cannot be torn. Concurrent readers must go
    // through snapshot().
    const StreamingServiceTime &
    serviceTime() const AIWC_NO_THREAD_SAFETY_ANALYSIS
    {
        return service_time_;
    }
    const StreamingUtilization &
    utilization() const AIWC_NO_THREAD_SAFETY_ANALYSIS
    {
        return utilization_;
    }
    const StreamingPower &
    power() const AIWC_NO_THREAD_SAFETY_ANALYSIS
    {
        return power_;
    }
    const StreamingUserBehavior &
    userBehavior() const AIWC_NO_THREAD_SAFETY_ANALYSIS
    {
        return user_behavior_;
    }

  private:
    /** Member-wise copy with @p other's lock already held. */
    StreamPipeline(const StreamPipeline &other,
                   const MutexLock &other_lock)
        AIWC_REQUIRES(other.mutex_);

    /** Unlocked body shared by the locking public entry points. */
    std::size_t sketchBytesLocked() const AIWC_REQUIRES(mutex_);

    /**
     * Serializes ingest/merge/snapshot (see class comment). mutable:
     * snapshot() is const yet must exclude concurrent mutation.
     */
    mutable Mutex mutex_;
    std::uint64_t rows_ AIWC_GUARDED_BY(mutex_) = 0;
    std::uint64_t gpu_jobs_ AIWC_GUARDED_BY(mutex_) = 0;
    std::uint64_t cpu_jobs_ AIWC_GUARDED_BY(mutex_) = 0;
    StreamingServiceTime service_time_ AIWC_GUARDED_BY(mutex_);
    StreamingUtilization utilization_ AIWC_GUARDED_BY(mutex_);
    StreamingPower power_ AIWC_GUARDED_BY(mutex_);
    StreamingUserBehavior user_behavior_ AIWC_GUARDED_BY(mutex_);
};

/**
 * Shard-parallel batch ingest: folds `records` into a fresh pipeline
 * via parallelReduce (per-shard private pipelines, merged in
 * shard-index order). Bit-identical to a serial ingest of the same
 * span up to sketch compaction boundaries, and bit-identical across
 * thread counts by construction.
 */
StreamPipeline ingestParallel(std::span<const core::JobRecord> records);

} // namespace aiwc::stream
