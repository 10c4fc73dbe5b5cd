#include "aiwc/svc/service.hh"

#include <atomic>
#include <utility>

#include "aiwc/base/check.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/obs/metrics.hh"
#include "aiwc/obs/trace.hh"

namespace aiwc::svc
{

namespace
{

obs::Counter &
batchesAdmittedCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.svc.batches_admitted");
    return c;
}

obs::Counter &
batchesRejectedCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.svc.batches_rejected");
    return c;
}

obs::Counter &
recordsIngestedCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.svc.records_ingested");
    return c;
}

obs::Counter &
snapshotsCounter()
{
    static obs::Counter &c =
        obs::MetricsRegistry::global().counter("aiwc.svc.snapshots");
    return c;
}

obs::Gauge &
tenantsGauge()
{
    static obs::Gauge &g =
        obs::MetricsRegistry::global().gauge("aiwc.svc.tenants");
    return g;
}

obs::Gauge &
queuedRecordsGauge()
{
    static obs::Gauge &g =
        obs::MetricsRegistry::global().gauge("aiwc.svc.queued_records");
    return g;
}

obs::Histogram &
drainNsHistogram()
{
    static obs::Histogram &h =
        obs::MetricsRegistry::global().histogram("aiwc.svc.drain_ns");
    return h;
}

} // namespace

Service::Service(ServiceOptions options) : options_(std::move(options))
{
    AIWC_CHECK(options_.queue_budget_records >= 1,
               "queue budget must admit at least one record");
}

OfferResult
Service::offerFrame(std::span<const std::uint8_t> buffer)
{
    DecodedFrame frame = decodeFrame(buffer);
    OfferResult result;
    result.decode = frame.status;
    result.consumed = frame.consumed;
    result.tenant = frame.tenant;
    if (!frame.ok())
        return result;
    const std::size_t records = frame.records.size();
    result.admission =
        enqueueBatch(frame.tenant, std::move(frame.records));
    if (result.admission == Admission::Accepted)
        result.records = records;
    return result;
}

Admission
Service::enqueueBatch(std::uint64_t tenant_id,
                      std::vector<core::JobRecord> &&batch)
{
    Tenant &tenant = tenantFor(tenant_id);
    MutexLock lock(tenant.mutex);
    // An empty queue always admits: a batch larger than the whole
    // budget must still be able to make progress eventually.
    if (tenant.queued_records > 0 &&
        tenant.queued_records + batch.size() >
            options_.queue_budget_records) {
        batchesRejectedCounter().add(1);
        return Admission::Backpressure;
    }
    tenant.queued_records += batch.size();
    queuedRecordsGauge().add(static_cast<std::int64_t>(batch.size()));
    tenant.queue.push_back(std::move(batch));
    batchesAdmittedCounter().add(1);
    return Admission::Accepted;
}

std::size_t
Service::drain()
{
    obs::ScopedTimer timer(drainNsHistogram(), "svc.drain");
    // Snapshot the tenant pointer set in ascending-id order; the map
    // values are stable unique_ptrs, so the registry lock can drop
    // before the fan-out (lock order: registry before tenant).
    std::vector<Tenant *> tenants;
    {
        MutexLock lock(registry_mutex_);
        tenants.reserve(tenants_.size());
        for (const auto &[id, tenant] : tenants_)
            tenants.push_back(tenant.get());
    }
    std::atomic<std::size_t> total{0};
    parallelFor(globalPool(), tenants.size(), [&](std::size_t i) {
        Tenant &tenant = *tenants[i];
        for (;;) {
            // One batch per lock hold: snapshots interleave at batch
            // boundaries instead of waiting out the whole backlog.
            MutexLock lock(tenant.mutex);
            if (tenant.queue.empty())
                break;
            std::vector<core::JobRecord> batch =
                std::move(tenant.queue.front());
            tenant.queue.pop_front();
            tenant.queued_records -= batch.size();
            queuedRecordsGauge().add(
                -static_cast<std::int64_t>(batch.size()));
            for (const core::JobRecord &rec : batch)
                tenant.pipeline.ingest(rec);
            tenant.ingested += batch.size();
            total.fetch_add(batch.size(), std::memory_order_relaxed);
        }
    });
    const std::size_t drained = total.load(std::memory_order_relaxed);
    recordsIngestedCounter().add(drained);
    return drained;
}

stream::SnapshotReport
Service::snapshot(std::uint64_t tenant_id) const
{
    obs::TraceSpan span("svc.snapshot");
    const Tenant *tenant = findTenant(tenant_id);
    AIWC_CHECK(tenant != nullptr, "snapshot of unknown tenant ",
               tenant_id, "; probe with hasTenant() first");
    MutexLock lock(tenant->mutex);
    snapshotsCounter().add(1);
    return tenant->pipeline.snapshot();
}

bool
Service::hasTenant(std::uint64_t tenant_id) const
{
    return findTenant(tenant_id) != nullptr;
}

std::vector<std::uint64_t>
Service::tenantIds() const
{
    MutexLock lock(registry_mutex_);
    std::vector<std::uint64_t> ids;
    ids.reserve(tenants_.size());
    for (const auto &[id, tenant] : tenants_)
        ids.push_back(id);
    return ids;
}

std::uint64_t
Service::ingestedRecords(std::uint64_t tenant_id) const
{
    const Tenant *tenant = findTenant(tenant_id);
    if (tenant == nullptr)
        return 0;
    MutexLock lock(tenant->mutex);
    return tenant->ingested;
}

std::size_t
Service::sketchBytes() const
{
    std::vector<const Tenant *> tenants;
    {
        MutexLock lock(registry_mutex_);
        tenants.reserve(tenants_.size());
        for (const auto &[id, tenant] : tenants_)
            tenants.push_back(tenant.get());
    }
    std::size_t bytes = 0;
    for (const Tenant *tenant : tenants) {
        MutexLock lock(tenant->mutex);
        bytes += tenant->pipeline.sketchBytes();
    }
    return bytes;
}

Service::Tenant &
Service::tenantFor(std::uint64_t id)
{
    MutexLock lock(registry_mutex_);
    auto it = tenants_.find(id);
    if (it == tenants_.end()) {
        it = tenants_
                 .emplace(id, std::make_unique<Tenant>())
                 .first;
        tenantsGauge().set(static_cast<std::int64_t>(tenants_.size()));
    }
    return *it->second;
}

const Service::Tenant *
Service::findTenant(std::uint64_t id) const
{
    MutexLock lock(registry_mutex_);
    const auto it = tenants_.find(id);
    return it == tenants_.end() ? nullptr : it->second.get();
}

} // namespace aiwc::svc
