/**
 * @file
 * `analyze`: the analyst with a real export. Set-up tiles a pool of
 * eight scale-0.02 syntheses (~11.6k jobs, 80 users) seven times, with
 * re-keyed ids and users, into a paper-scale trace of ~81k jobs, held as
 * `.aiwt` bytes and as CSV text. A pass decodes
 * both, runs the full-study analyzers and their render, the power-cap,
 * co-location and multi-tier planners, then stream::ingestParallel and a
 * snapshot. No synthesis: this is where dataset layout, parallel grain
 * and decode changes show.
 */

#include <algorithm>
#include <istream>
#include <sstream>
#include <streambuf>

#include "aiwc/common/parallel.hh"
#include "aiwc/core/csv_loader.hh"
#include "aiwc/fmt/trace.hh"
#include "aiwc/opportunity/colocation_advisor.hh"
#include "aiwc/opportunity/multi_tier_planner.hh"
#include "aiwc/opportunity/power_cap_planner.hh"
#include "aiwc/stream/pipeline.hh"
#include "bench.hh"

namespace perfbench
{
namespace
{

using namespace aiwc;

/** Read-only streambuf over bytes owned elsewhere (no copy per pass). */
class ViewBuf : public std::streambuf
{
  public:
    explicit ViewBuf(const std::string &s)
    {
        char *p = const_cast<char *>(s.data());
        setg(p, p, p + s.size());
    }
};

/** Every name the analyze pass records a span under. */
constexpr const char *pass_spans[] = {
    "fmt.decode",
    "core.csv_load",
    "core.timeline",
    "core.service_time",
    "core.utilization",
    "core.utilization_by_interface",
    "core.phase",
    "core.bottleneck",
    "core.power",
    "core.user_behavior",
    "core.correlation",
    "core.multi_gpu",
    "core.lifecycle",
    "core.render",
    "opportunity.power_cap",
    "opportunity.colocation",
    "opportunity.multi_tier",
    "stream.ingest",
    "stream.snapshot",
};

class Analyze final : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        const core::Dataset base =
            synthesizePool(ctx.options.seed, ctx.options.tiny ? 0.01 : 0.02,
                           ctx.options.tiny ? 2 : 8);
        const int tiles = ctx.options.tiny ? 2 : 7;

        UserId users = 0;
        for (const core::JobRecord &rec : base.records())
            users = std::max<UserId>(users, rec.user + 1);
        std::vector<core::JobRecord> records;
        records.reserve(base.size() * static_cast<std::size_t>(tiles));
        for (int t = 0; t < tiles; ++t) {
            for (const core::JobRecord &rec : base.records()) {
                core::JobRecord copy = rec;
                copy.id = static_cast<JobId>(records.size());
                copy.user = rec.user + static_cast<UserId>(t) * users;
                records.push_back(std::move(copy));
            }
        }
        const core::Dataset tiled(std::move(records));

        bytes_ = fmt::encodeTrace(tiled);
        std::ostringstream csv;
        tiled.writeCsv(csv);
        csv_ = csv.str();
        csv_rows_ = static_cast<std::size_t>(
                        std::count(csv_.begin(), csv_.end(), '\n')) -
                    1;  // header line
        rows_ = tiled.size();
        digest_ = fmt::contentDigest(tiled);
    }

    PassResult
    pass(Context &ctx, std::size_t) override
    {
        const double t0 = nowMs();
        double check_ms = 0.0;
        {
            fmt::TraceLoadResult decoded;
            {
                Spans::Scope s(ctx.spans, "fmt.decode");
                decoded = fmt::decodeTrace(bytes_);
            }
            core::Dataset from_csv;
            {
                Spans::Scope s(ctx.spans, "core.csv_load");
                ViewBuf buf(csv_);
                std::istream is(&buf);
                from_csv = core::loadDatasetCsv(is);
            }
            const core::Dataset &ds = decoded.dataset;
            std::string text = renderFullStudy(ctx, ds, terms_);
            std::ostringstream os;
            os.precision(17);
            {
                Spans::Scope s(ctx.spans, "opportunity.power_cap");
                for (const auto &plan : opportunity::PowerCapPlanner().plan(
                         ds, {150.0, 200.0, 250.0}))
                    os << plan.cap_watts << ' ' << plan.throughput_gain
                       << ' ' << plan.weighted_slowdown << '\n';
            }
            {
                Spans::Scope s(ctx.spans, "opportunity.colocation");
                const auto colo = opportunity::ColocationAdvisor().analyze(ds);
                os << colo.paired_job_fraction << ' '
                   << colo.gpu_hours_saved_fraction << '\n';
            }
            {
                Spans::Scope s(ctx.spans, "opportunity.multi_tier");
                const auto tier = opportunity::MultiTierPlanner().plan(ds);
                os << tier.shifted_hour_fraction << ' '
                   << tier.cost_saving_fraction << '\n';
            }
            const stream::StreamPipeline pipeline = [&] {
                Spans::Scope s(ctx.spans, "stream.ingest");
                return stream::ingestParallel(ds.records());
            }();
            {
                Spans::Scope s(ctx.spans, "stream.snapshot");
                pipeline.snapshot().print(os);
            }
            text += os.str();

            // Output checks; their time is taken back out of the pass.
            const double c0 = nowMs();
            const std::uint64_t digest = fmt::contentDigest(ds);
            digest_ms_ = nowMs() - c0;
            const std::uint64_t report = fnv1a(text);
            if (passes_++ == 0)
                report_ = report;
            decode_failures_ += !decoded.ok();
            digest_mismatches_ += digest != digest_;
            csv_mismatches_ += from_csv.size() != csv_rows_;
            csv_loaded_ = from_csv.size();
            report_mismatches_ += report != report_;
            sketch_bytes_ = pipeline.sketchBytes();
            ctx.report.op(decoded.ok() && digest == digest_ &&
                          from_csv.size() == csv_rows_ && report == report_);
            check_ms = nowMs() - c0;
        }
        return {nowMs() - t0 - check_ms, static_cast<double>(rows_)};
    }

    const char *
    throughputName() const override
    {
        return "analyze_jobs_per_s";
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
        ctx.report.check("every .aiwt decode returns Ok",
                         decode_failures_ == 0,
                         std::to_string(decode_failures_) + base + " failed");
        ctx.report.check("fmt::contentDigest of the decoded trace equals "
                         "the set-up digest",
                         digest_mismatches_ == 0,
                         std::to_string(digest_mismatches_) + base +
                             " differ, " + std::to_string(rows_) + " jobs");
        ctx.report.check("CSV rows loaded equal rows written",
                         csv_mismatches_ == 0,
                         std::to_string(csv_mismatches_) + base +
                             " differ, " + std::to_string(csv_rows_) +
                             " rows");
        ctx.report.check("report bytes identical across passes",
                         report_mismatches_ == 0,
                         std::to_string(report_mismatches_) + base +
                             " differ");
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
        double sum_ms = 0.0;
        for (const char *name : pass_spans)
            sum_ms += span(name);

        out.metric("fmt.decode_ms", span("fmt.decode"), "ms");
        out.metric("fmt.decode_rejects",
                   counterValue(registry, "aiwc.fmt.decode_rejects"), "count");
        out.metric("fmt.digest_ms", digest_ms_, "ms");
        out.metric("core.csv_load_ms", span("core.csv_load"), "ms");
        out.metric("core.csv_rows_rejected",
                   static_cast<double>(csv_rows_ - csv_loaded_), "count");
        for (const char *name : pass_spans) {
            const std::string n = name;
            if (n.rfind("core.", 0) == 0 && n != "core.csv_load")
                out.metric(n + "_ms", span(name), "ms");
        }
        out.metric("opportunity.power_cap_ms", span("opportunity.power_cap"),
                   "ms");
        out.metric("opportunity.colocation_ms",
                   span("opportunity.colocation"), "ms");
        out.metric("opportunity.multi_tier_ms",
                   span("opportunity.multi_tier"), "ms");
        out.metric("stream.ingest_ms", span("stream.ingest"), "ms");
        out.metric("stream.snapshot_ms", span("stream.snapshot"), "ms");
        out.metric("stream.merges",
                   counterValue(registry, "aiwc.stream.merges"), "count");
        out.metric("sketch.bytes", static_cast<double>(sketch_bytes_),
                   "bytes");
        out.metric("sketch.compactions",
                   counterValue(registry, "aiwc.sketch.compactions"), "count");
        out.metric("common.shards",
                   counterValue(registry, "aiwc.parallel.shards_executed"),
                   "count");
        out.metric("common.rows_per_shard",
                   static_cast<double>(rows_) /
                       static_cast<double>(
                           std::max<std::size_t>(
                               detail::shardRanges(rows_).size(), 1)),
                   "rows");

        // Dataset build and footprint, measured around a fresh decode.
        const double heap0 = heapBytes();
        fmt::TraceLoadResult decoded = fmt::decodeTrace(bytes_);
        out.metric("core.dataset_mb", (heapBytes() - heap0) / (1 << 20),
                   "MB");
        std::vector<core::JobRecord> records = decoded.dataset.records();
        core::Dataset rebuilt;
        const double b0 = nowMs();
        for (core::JobRecord &rec : records)
            rebuilt.add(std::move(rec));
        out.metric("core.build_ms", nowMs() - b0, "ms");

        // The analyzer set plus ingestParallel at one pool thread versus
        // the workload's pool, alternating, median of three each.
        const auto parallelPart = [&](int threads) {
            setGlobalThreadCount(threads);
            Spans quiet;
            Context plain{ctx.options, quiet, ctx.report};
            std::vector<PaperTerm> terms;
            const double t0 = nowMs();
            renderFullStudy(plain, decoded.dataset, terms);
            stream::ingestParallel(decoded.dataset.records());
            return nowMs() - t0;
        };
        std::vector<double> pooled, serial;
        for (int rep = 0; rep < 3; ++rep) {
            pooled.push_back(parallelPart(ctx.options.pool_threads));
            serial.push_back(parallelPart(1));
        }
        setGlobalThreadCount(ctx.options.pool_threads);
        out.metric("common.parallel_speedup", median(serial) / median(pooled),
                   "ratio");

        reportClosure(ctx, "decode + csv + analyzers + render + planners + "
                           "stream",
                      sum_ms, untraced_ms);
    }

  private:
    std::vector<std::uint8_t> bytes_;
    std::string csv_;
    std::size_t csv_rows_ = 0;
    std::size_t rows_ = 0;
    std::uint64_t digest_ = 0;

    std::vector<PaperTerm> terms_;
    std::uint64_t report_ = 0;
    std::size_t passes_ = 0;
    std::size_t decode_failures_ = 0;
    std::size_t digest_mismatches_ = 0;
    std::size_t csv_mismatches_ = 0;
    std::size_t report_mismatches_ = 0;
    std::size_t csv_loaded_ = 0;
    std::size_t sketch_bytes_ = 0;
    double digest_ms_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeAnalyze()
{
    return std::make_unique<Analyze>();
}

} // namespace perfbench
