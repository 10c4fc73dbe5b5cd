/**
 * @file
 * `ingest`: the multi-tenant service in a closed loop. Set-up amplifies
 * a pool of eight scale-0.02 syntheses (~11.6k jobs) to 500k records for
 * 32 tenants and 100k users and pre-encodes them as batch-512 wire
 * frames. A single feeder offers each
 * frame with Service::offerFrame and drains on backpressure; every 2,500
 * records it drains and snapshots the tenant it just fed (~200
 * snapshots). The loop is closed because the in-process service serves
 * callers that wait for it. Many small sharded pipelines with reads
 * interleaved with writes: the stream layer used another way than in
 * `analyze`, plus svc decode, queue and drain, which run only here.
 */

#include <algorithm>
#include <iostream>
#include <sstream>

#include "aiwc/svc/service.hh"
#include "bench.hh"

namespace perfbench
{
namespace
{

using namespace aiwc;

struct Frame
{
    std::uint64_t tenant;
    std::vector<std::uint8_t> bytes;
};

class Ingest final : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        const bool tiny = ctx.options.tiny;
        records_ = tiny ? 20'000 : 500'000;
        snapshot_every_ = tiny ? 500 : 2'500;
        const std::uint64_t tenants = tiny ? 8 : 32;
        const std::uint64_t users = tiny ? 2'000 : 100'000;
        const std::size_t batch = 512;

        const core::Dataset base = synthesizePool(
            ctx.options.seed, tiny ? 0.01 : 0.02, tiny ? 1 : 8);
        const auto &recs = base.records();

        frames_.clear();
        std::vector<std::vector<core::JobRecord>> pending(tenants);
        for (std::uint64_t i = 0; i < records_; ++i) {
            core::JobRecord rec = recs[i % recs.size()];
            rec.id = static_cast<JobId>(i);
            rec.user = static_cast<UserId>(
                splitmix64(ctx.options.seed ^ (i * 0x9e3779b97f4a7c15ull)) %
                users);
            const std::uint64_t tenant = rec.user % tenants;
            pending[tenant].push_back(std::move(rec));
            if (pending[tenant].size() == batch) {
                frames_.push_back(
                    {tenant, svc::encodeJobBatch(tenant, pending[tenant])});
                pending[tenant].clear();
            }
        }
        for (std::uint64_t t = 0; t < tenants; ++t)
            if (!pending[t].empty())
                frames_.push_back({t, svc::encodeJobBatch(t, pending[t])});
    }

    PassResult
    pass(Context &ctx, std::size_t) override
    {
        obs::Gauge &queued =
            obs::MetricsRegistry::global().gauge("aiwc.svc.queued_records");
        const bool measured = passes_++ > 0 && !ctx.spans.enabled();
        const double t0 = nowMs();
        double check_ms = 0.0;
        {
            svc::Service service;
            std::uint64_t sent = 0;
            std::uint64_t next_snapshot = snapshot_every_;
            std::size_t decode_failures = 0;
            drains_ = 0;
            const auto drain = [&] {
                Spans::Scope s(ctx.spans, "svc.drain");
                service.drain();
                ++drains_;
            };
            for (const Frame &frame : frames_) {
                svc::OfferResult r;
                do {
                    if (r.decode == svc::DecodeStatus::Ok)
                        drain();  // backpressure: make room, then re-offer
                    Spans::Scope s(ctx.spans, "svc.offer");
                    r = service.offerFrame(frame.bytes);
                } while (r.decode == svc::DecodeStatus::Ok && !r.accepted());
                if (r.decode != svc::DecodeStatus::Ok) {
                    ++decode_failures;
                    continue;
                }
                high_water_ = std::max(high_water_, queued.value());
                sent += r.records;
                if (sent >= next_snapshot) {
                    next_snapshot += snapshot_every_;
                    drain();
                    const double s0 = nowMs();
                    {
                        Spans::Scope s(ctx.spans, "svc.snapshot");
                        service.snapshot(frame.tenant);
                    }
                    if (measured)
                        snapshot_ms_.push_back(nowMs() - s0);
                }
            }
            drain();

            // Output checks; their time is taken back out of the pass.
            const double c0 = nowMs();
            std::uint64_t ingested = 0;
            std::string finals;
            terms_.clear();
            for (std::uint64_t tenant : service.tenantIds()) {
                ingested += service.ingestedRecords(tenant);
                const stream::SnapshotReport snap = service.snapshot(tenant);
                std::ostringstream os;
                snap.print(os);
                finals += os.str();
                const auto terms = snapshotPaperTerms(snap);
                terms_.insert(terms_.end(), terms.begin(), terms.end());
            }
            sketch_bytes_ = service.sketchBytes();
            const std::uint64_t digest = fnv1a(finals);
            if (passes_ == 1)
                digest_ = digest;
            decode_failures_ += decode_failures;
            lost_ += ingested != sent || sent != records_;
            digest_mismatches_ += digest != digest_;
            ctx.report.op(decode_failures == 0 && ingested == sent &&
                          sent == records_ && digest == digest_);
            check_ms = nowMs() - c0;
        }
        return {nowMs() - t0 - check_ms, static_cast<double>(records_)};
    }

    const char *
    throughputName() const override
    {
        return "ingest_records_per_s";
    }

    double
    paperLogErr() const override
    {
        return perfbench::paperLogErr(terms_);
    }

    void
    finalChecks(Context &ctx) override
    {
        const std::string base = " of " + std::to_string(passes_) + " passes";
        ctx.report.check("every frame decodes Ok", decode_failures_ == 0,
                         std::to_string(decode_failures_) + " of " +
                             std::to_string(frames_.size() * passes_) +
                             " frames failed");
        ctx.report.check("records ingested equal records sent", lost_ == 0,
                         std::to_string(lost_) + base + " differ, " +
                             std::to_string(records_) + " records each");
        ctx.report.check("final per-tenant snapshot digest identical "
                         "across passes",
                         digest_mismatches_ == 0,
                         std::to_string(digest_mismatches_) + base +
                             " differ");
        if (!snapshot_ms_.empty())
            std::cout << "snapshot_ms_p50 = " << quantile(snapshot_ms_, 0.5)
                      << " ms, snapshot_ms_p90 = "
                      << quantile(snapshot_ms_, 0.9) << " ms ("
                      << snapshot_ms_.size()
                      << " snapshots of untraced passes)\n";
    }

    void
    layerMetrics(Context &ctx, double untraced_ms,
                 const std::map<std::string, double> &spans_ms,
                 const RegistryValues &registry) override
    {
        Report &out = ctx.report;
        const auto span = [&](const char *name) {
            const auto it = spans_ms.find(name);
            return it == spans_ms.end() ? 0.0 : it->second;
        };
        const double admitted =
            counterValue(registry, "aiwc.svc.batches_admitted");
        const double rejected =
            counterValue(registry, "aiwc.svc.batches_rejected");
        out.metric("svc.offer_ms", span("svc.offer"), "ms");
        out.metric("svc.frames",
                   counterValue(registry, "aiwc.svc.frames_decoded"), "count");
        out.metric("svc.decode_rejects",
                   counterValue(registry, "aiwc.svc.decode_rejects"), "count");
        out.metric("svc.backpressure_ratio",
                   rejected / std::max(admitted + rejected, 1.0), "ratio");
        out.metric("svc.drain_ms", span("svc.drain"), "ms");
        out.metric("svc.drains", static_cast<double>(drains_), "count");
        out.metric("svc.queue_high_water", static_cast<double>(high_water_),
                   "records");
        const bool have = !snapshot_ms_.empty();
        out.metric("svc.snapshot_ms_p50",
                   have ? quantile(snapshot_ms_, 0.5) : 0.0, "ms");
        out.metric("svc.snapshot_ms_p90",
                   have ? quantile(snapshot_ms_, 0.9) : 0.0, "ms");
        out.metric("stream.snapshot_ms", span("svc.snapshot"), "ms");
        out.metric("stream.merges",
                   counterValue(registry, "aiwc.stream.merges"), "count");
        out.metric("sketch.bytes", static_cast<double>(sketch_bytes_),
                   "bytes");
        out.metric("sketch.compactions",
                   counterValue(registry, "aiwc.sketch.compactions"), "count");
        reportClosure(ctx, "offer + drain + snapshot",
                      span("svc.offer") + span("svc.drain") +
                          span("svc.snapshot"),
                      untraced_ms);
    }

  private:
    std::uint64_t records_ = 0;
    std::uint64_t snapshot_every_ = 0;
    std::vector<Frame> frames_;

    std::vector<PaperTerm> terms_;
    std::vector<double> snapshot_ms_;
    std::size_t passes_ = 0;
    std::size_t drains_ = 0;
    std::int64_t high_water_ = 0;
    std::size_t sketch_bytes_ = 0;
    std::uint64_t digest_ = 0;
    std::size_t decode_failures_ = 0;
    std::size_t lost_ = 0;
    std::size_t digest_mismatches_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeIngest()
{
    return std::make_unique<Ingest>();
}

} // namespace perfbench
