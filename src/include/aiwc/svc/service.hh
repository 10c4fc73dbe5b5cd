/**
 * @file
 * The multi-tenant streaming characterization service: one
 * StreamPipeline per tenant behind a frame-decoding front door. This
 * is the daemon shape of the ROADMAP north star — many clusters
 * (tenants) feed JobRecord batches over the wire, and operators pull
 * live SnapshotReports mid-stream without quiescing ingest.
 *
 * Threading model (lock order: registry -> tenant -> pipeline):
 *
 *  - offerFrame()/enqueueBatch() append to the tenant's bounded queue
 *    under the tenant mutex; when the queue already holds more than
 *    ServiceOptions::queue_budget_records the batch is refused with
 *    Admission::Backpressure (an empty queue always admits, so a
 *    single oversized batch cannot wedge a tenant forever).
 *  - drain() moves queued batches into each tenant's pipeline in
 *    queue order, one batch per tenant-lock hold, fanning across
 *    tenants with parallelFor. A tenant's batches apply in the order
 *    they were admitted, never depending on the thread count, so the
 *    post-drain state (and every snapshot digest) is byte-identical
 *    at 1 or 8 drain threads. The parallelism is across tenants; one
 *    tenant's batches are applied one at a time.
 *  - snapshot() renders the tenant's pipeline under the tenant mutex,
 *    so a snapshot is batch-atomic: it observes whole drained
 *    batches, never a half-applied one.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "aiwc/base/mutex.hh"
#include "aiwc/base/thread_annotations.hh"
#include "aiwc/core/job_record.hh"
#include "aiwc/stream/pipeline.hh"
#include "aiwc/svc/frame.hh"

namespace aiwc::svc
{

/** Deployment capacity of the service. */
struct ServiceOptions
{
    /**
     * Backpressure threshold: a batch is refused when the tenant's
     * queue already holds more than this many records. An empty queue
     * always admits. Must be >= 1 (AIWC_CHECK).
     */
    std::size_t queue_budget_records = 65536;
};

/** Outcome of offering a batch to a tenant's queue. */
enum class Admission : std::uint8_t
{
    Accepted,
    /** Queue over budget; the sender must retry after a drain. */
    Backpressure,
};

const char *toString(Admission a);

/** Outcome of offering one wire frame to the service. */
struct OfferResult
{
    /** Frame-level verdict; see DecodedFrame for `consumed`. */
    DecodeStatus decode = DecodeStatus::NeedMoreData;
    std::size_t consumed = 0;
    /** Queue verdict; meaningful only when decode == Ok. */
    Admission admission = Admission::Backpressure;
    std::uint64_t tenant = 0;
    /** Records admitted (0 unless accepted()). */
    std::size_t records = 0;

    bool
    accepted() const
    {
        return decode == DecodeStatus::Ok &&
               admission == Admission::Accepted;
    }
};

/**
 * The ingest daemon core. All public methods are thread-safe; see the
 * file comment for the locking model. Tenants are created on first
 * contact and live for the service's lifetime (the study's tenant
 * population is small and stable — clusters, not sessions).
 */
class Service
{
  public:
    explicit Service(ServiceOptions options = {});

    /**
     * Decode one frame and, when it parses, offer its batch to the
     * tenant's queue. Malformed bytes never throw or abort — the
     * returned OfferResult carries the decode verdict and the
     * consumption contract of decodeFrame().
     */
    OfferResult offerFrame(std::span<const std::uint8_t> buffer);

    /**
     * Offer an already-decoded batch (the in-process fast path the
     * demo uses). Moves from @p batch only when admitted.
     */
    Admission enqueueBatch(std::uint64_t tenant,
                           std::vector<core::JobRecord> &&batch);

    /**
     * Move every queued batch into its tenant's pipeline, fanning
     * across tenants on the global pool. @return records ingested.
     * Concurrent enqueues during a drain simply land in the queue for
     * the next drain; concurrent snapshots interleave at batch
     * boundaries.
     */
    std::size_t drain();

    /**
     * Render the tenant's pipeline; sketch_bytes is its live
     * footprint. Batch-atomic with respect to drain(). The tenant
     * must exist (AIWC_CHECK) — probe with hasTenant() when unsure.
     */
    stream::SnapshotReport snapshot(std::uint64_t tenant) const;

    bool hasTenant(std::uint64_t tenant) const;

    /** All tenant ids, ascending. */
    std::vector<std::uint64_t> tenantIds() const;

    /** Records waiting in the tenant's queue (0 for unknown). */
    std::size_t queuedRecords(std::uint64_t tenant) const;

    /** Records drained into the tenant's pipeline (0 for unknown). */
    std::uint64_t ingestedRecords(std::uint64_t tenant) const;

    /** Sketch footprint summed over every tenant's pipeline, bytes. */
    std::size_t sketchBytes() const;

  private:
    struct Tenant
    {
        /** Guards everything below; see file-comment lock order. */
        mutable Mutex mutex;
        std::deque<std::vector<core::JobRecord>> queue
            AIWC_GUARDED_BY(mutex);
        std::size_t queued_records AIWC_GUARDED_BY(mutex) = 0;
        std::uint64_t ingested AIWC_GUARDED_BY(mutex) = 0;
        /**
         * Also serializes on its own mutex (lock order: tenant before
         * pipeline, tools/aiwc-lint/locks.txt).
         */
        stream::StreamPipeline pipeline AIWC_GUARDED_BY(mutex);
    };

    /** Find-or-create; returns a pointer stable for the Service's life. */
    Tenant &tenantFor(std::uint64_t id);
    const Tenant *findTenant(std::uint64_t id) const;

    ServiceOptions options_;
    mutable Mutex registry_mutex_;
    /** std::map: tenant iteration order must be deterministic. */
    std::map<std::uint64_t, std::unique_ptr<Tenant>> tenants_
        AIWC_GUARDED_BY(registry_mutex_);
};

} // namespace aiwc::svc
