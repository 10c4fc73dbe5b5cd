/**
 * @file
 * `study`: seed -> TraceSynthesizer::run -> the full study report. The
 * quickstart path; telemetry synthesis and the scheduler replay
 * dominate, so this is where synthesis changes show. It bypasses fmt,
 * CSV, stream, svc and scenario.
 *
 * Each pass synthesizes a new scale-0.02 study (pass i uses
 * replicateSeed(seed, i)) and the run reports total jobs over total
 * time. One scale-0.1 study per pass would be closer to the paper, but
 * its cost depends on which ~19 users the seed draws: the scheduler
 * replay alone ranges from 0.3 s to 2.7 s across seeds, so its
 * throughput spread across seeds was ~40%. Many small draws per run
 * average that out.
 */

#include <cstring>
#include <iostream>
#include <sstream>

#include "aiwc/core/report_writer.hh"
#include "aiwc/telemetry/sampler.hh"
#include "aiwc/workload/trace_synthesizer.hh"
#include "bench.hh"

namespace perfbench
{
namespace
{

using namespace aiwc;

bool
sameSummary(const stats::RunningSummary &a, const stats::RunningSummary &b)
{
    const auto x = a.rawState();
    const auto y = b.rawState();
    return x.count == y.count &&
           std::memcmp(&x.min, &y.min, sizeof x.min) == 0 &&
           std::memcmp(&x.max, &y.max, sizeof x.max) == 0 &&
           std::memcmp(&x.sum, &y.sum, sizeof x.sum) == 0 &&
           std::memcmp(&x.sum_sq, &y.sum_sq, sizeof x.sum_sq) == 0;
}

bool
samePerGpu(const std::vector<core::GpuUsageSummary> &a,
           const std::vector<core::GpuUsageSummary> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t g = 0; g < a.size(); ++g) {
        for (Resource r : {Resource::Sm, Resource::MemoryBw,
                           Resource::MemorySize, Resource::PcieTx,
                           Resource::PcieRx, Resource::Power})
            if (!sameSummary(a[g].byResource(r), b[g].byResource(r)))
                return false;
    }
    return true;
}

/** Outcome of re-running GpuSampler::sampleJob over a study's jobs. */
struct Resample
{
    std::size_t jobs = 0;
    std::size_t mismatches = 0;
    std::size_t gpus = 0;
    std::size_t detailed = 0;
    double ms = 0.0;
};

class Study final : public Workload
{
  public:
    void
    setup(Context &ctx) override
    {
        options_.scale = ctx.options.tiny ? 0.01 : 0.02;
        profile_ = workload::CalibrationProfile::supercloud();
    }

    PassResult
    pass(Context &ctx, std::size_t input) override
    {
        options_.seed = workload::TraceSynthesizer::replicateSeed(
            ctx.options.seed, static_cast<int>(input));
        const double t0 = nowMs();
        {
            Spans::Scope s(ctx.spans, "workload.synthesize");
            last_ = workload::TraceSynthesizer(profile_, options_).run();
        }
        const std::string text =
            renderFullStudy(ctx, last_.dataset, terms_);
        const double ms = nowMs() - t0;

        last_input_ = input;
        if (ctx.spans.enabled()) {
            report_ms_ = 0.0;
            for (const auto &[name, span_ms] : ctx.spans.passTotals())
                if (name.rfind("core.", 0) == 0)
                    report_ms_ += span_ms;
        }
        // A repeated input must reproduce its report byte for byte.
        const std::uint64_t digest = fnv1a(text);
        const auto [it, first] = digests_.emplace(input, digest);
        if (!first) {
            ++repeats_;
            mismatches_ += it->second != digest;
        }
        const double jobs = static_cast<double>(last_.dataset.size());
        ctx.report.op(it->second == digest && jobs > 0);
        return {ms, jobs};
    }

    bool variesInput() const override { return true; }
    const char *throughputName() const override { return "study_jobs_per_s"; }

    double
    paperLogErr() const override
    {
        return perfbench::paperLogErr(terms_);
    }

    void
    finalChecks(Context &ctx) override
    {
        ctx.report.check("report bytes identical when a study is re-run",
                         repeats_ > 0 && mismatches_ == 0,
                         std::to_string(mismatches_) + " of " +
                             std::to_string(repeats_) + " re-runs differ");

        std::ostringstream full;
        core::ReportWriter(full).printFullStudy(last_.dataset);
        Spans quiet;
        Context plain{ctx.options, quiet, ctx.report};
        std::vector<PaperTerm> terms;
        ctx.report.check(
            "per-analyzer render equals ReportWriter::printFullStudy",
            full.str() == renderFullStudy(plain, last_.dataset, terms),
            std::to_string(full.str().size()) + " bytes");

        // The traced run re-sampled every job for telemetry.sample_ms;
        // the untraced run checks every 16th to keep its cost small.
        const Resample r = full_.jobs > 0 ? full_ : resample(16);
        ctx.report.check("telemetry re-sample equals the records",
                         r.jobs > 0 && r.mismatches == 0,
                         std::to_string(r.mismatches) + " of " +
                             std::to_string(r.jobs) + " GPU jobs differ");
    }

    void
    layerMetrics(Context &ctx, double,
                 const std::map<std::string, double> &spans_ms,
                 const RegistryValues &) override
    {
        // The synthesizer is one call, so its stages come from separate
        // runs over the last pass's input: generation alone, generation
        // plus the scheduler replay, the telemetry sampler re-run from
        // outside, and the whole untraced pass again to close against.
        // Each is the median of three.
        workload::SynthesisOptions gen_only = options_;
        gen_only.through_scheduler = false;
        gen_only.telemetry = false;
        workload::SynthesisOptions replay = options_;
        replay.telemetry = false;
        Spans quiet;
        Context plain{ctx.options, quiet, ctx.report};
        std::vector<double> gen_ms, replay_total_ms, sample_ms, full_ms;
        RegistryValues gen, sched;
        for (int rep = 0; rep < 3; ++rep) {
            resetRegistry();
            double t0 = nowMs();
            workload::TraceSynthesizer(profile_, gen_only).run();
            gen_ms.push_back(nowMs() - t0);
            gen = readRegistry();

            resetRegistry();
            t0 = nowMs();
            workload::TraceSynthesizer(profile_, replay).run();
            replay_total_ms.push_back(nowMs() - t0);
            sched = readRegistry();

            full_ = resample(1);
            sample_ms.push_back(full_.ms);

            t0 = nowMs();
            last_ = workload::TraceSynthesizer(profile_, options_).run();
            std::vector<PaperTerm> terms;
            renderFullStudy(plain, last_.dataset, terms);
            full_ms.push_back(nowMs() - t0);
        }
        const double generate_ms = median(gen_ms);
        const double replay_ms = median(replay_total_ms) - generate_ms;
        const Resample &r = full_;
        const double telemetry_ms = median(sample_ms);

        Report &out = ctx.report;
        out.metric("workload.generate_ms", generate_ms, "ms");
        out.metric("workload.jobs",
                   counterValue(gen, "aiwc.workload.jobs_generated"), "count");
        out.metric("sched.replay_ms", replay_ms, "ms");
        const double events = counterValue(sched, "aiwc.sim.events_fired");
        out.metric("sim.events", events, "count");
        out.metric("sim.ns_per_event",
                   events > 0 ? replay_ms * 1e6 / events : 0.0, "ns");
        out.metric("sched.passes",
                   counterValue(sched, "aiwc.sched.fast_passes") +
                       counterValue(sched, "aiwc.sched.backfill_passes"),
                   "count");
        const double attempts =
            counterValue(sched, "aiwc.sched.backfill_attempts");
        out.metric("sched.backfill_hit_ratio",
                   attempts > 0
                       ? counterValue(sched, "aiwc.sched.backfill_hits") /
                             attempts
                       : 0.0,
                   "ratio");
        out.metric("sched.placement_failures",
                   counterValue(sched, "aiwc.sched.placement_failures"),
                   "count");
        out.metric("telemetry.sample_ms", telemetry_ms, "ms");
        out.metric("telemetry.gpus", static_cast<double>(r.gpus), "count");
        out.metric("telemetry.detailed_jobs", static_cast<double>(r.detailed),
                   "count");
        for (const auto &[name, ms] : spans_ms)
            if (name.rfind("core.", 0) == 0)
                out.metric(name + "_ms", ms, "ms");
        std::cout << "study split for input " << last_input_ << ": generate "
                  << generate_ms << " ms, replay " << replay_ms
                  << " ms, telemetry " << telemetry_ms << " ms, report "
                  << report_ms_ << " ms\n";
        reportClosure(ctx, "generate + replay + sample + report",
                      generate_ms + replay_ms + telemetry_ms + report_ms_,
                      median(full_ms));
    }

  private:
    /**
     * Re-run GpuSampler::sampleJob over every @p stride-th sampled job of
     * the last pass and compare with the records' per_gpu summaries.
     */
    Resample
    resample(std::size_t stride) const
    {
        const telemetry::PowerModel power(profile_.power);
        const telemetry::GpuSampler sampler(power, profile_.monitoring);
        Resample r;
        std::size_t seen = 0;
        const double t0 = nowMs();
        for (const core::JobRecord &rec : last_.dataset.records()) {
            if (!rec.isGpuJob() || !(rec.runTime() > 0.0))
                continue;
            if (seen++ % stride != 0)
                continue;
            const telemetry::JobTelemetry tele = sampler.sampleJob(
                last_.profiles[rec.id], rec.runTime(), rec.has_timeseries);
            ++r.jobs;
            r.gpus += tele.per_gpu.size();
            r.detailed += rec.has_timeseries;
            r.mismatches += !samePerGpu(tele.per_gpu, rec.per_gpu);
        }
        r.ms = nowMs() - t0;
        return r;
    }

    workload::CalibrationProfile profile_;
    workload::SynthesisOptions options_;
    workload::SynthesisResult last_;
    std::size_t last_input_ = 0;
    double report_ms_ = 0.0;
    Resample full_;
    std::vector<PaperTerm> terms_;
    std::map<std::size_t, std::uint64_t> digests_;
    std::size_t repeats_ = 0;
    std::size_t mismatches_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeStudy()
{
    return std::make_unique<Study>();
}

} // namespace perfbench
