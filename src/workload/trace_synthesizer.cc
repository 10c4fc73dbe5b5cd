#include "aiwc/workload/trace_synthesizer.hh"

#include <algorithm>
#include <cmath>

#include "aiwc/base/check.hh"
#include "aiwc/base/logging.hh"
#include "aiwc/common/parallel.hh"
#include "aiwc/obs/trace.hh"
#include "aiwc/dist/distributions.hh"
#include "aiwc/sim/cluster_factory.hh"
#include "aiwc/sim/simulation.hh"
#include "aiwc/telemetry/collector.hh"
#include "aiwc/telemetry/sampler.hh"
#include "aiwc/workload/arrival_process.hh"
#include "aiwc/workload/job_generator.hh"
#include "aiwc/workload/user_population.hh"

namespace aiwc::workload
{

namespace
{

/** Sample a job-array size from its log-normal parameters. */
int
arraySize(double median, double sigma, int max, Rng &rng)
{
    const dist::LogNormal body(median, sigma);
    const auto k = static_cast<int>(std::lround(body.sample(rng)));
    return std::clamp(k, 2, max);
}

/**
 * Monte-Carlo estimate of the expected jobs produced per arrival of
 * one kind (single submission vs. array expansion).
 */
double
expectedExpansion(double array_prob, double median, double sigma, int max,
                  Rng &rng)
{
    if (array_prob <= 0.0)
        return 1.0;
    constexpr int trials = 4000;
    double acc = 0.0;
    for (int i = 0; i < trials; ++i) {
        acc += rng.chance(array_prob)
                   ? static_cast<double>(arraySize(median, sigma, max, rng))
                   : 1.0;
    }
    return acc / trials;
}

/** Nominal monitoring bytes a job writes at the real 100 ms cadence. */
std::uint64_t
nominalSpoolBytes(const sched::Job &job,
                  const telemetry::MonitoringParams &mon)
{
    const double duration = job.runTime();
    const double gpu_rows = job.request.isGpuJob()
                                ? duration / mon.gpu_interval *
                                      job.request.gpus
                                : 0.0;
    const double cpu_rows =
        duration / mon.cpu_interval *
        static_cast<double>(job.allocation.shares.size());
    // One nvidia-smi row ~ the Sample struct; one CPU row ~ 64 bytes.
    return static_cast<std::uint64_t>(
        gpu_rows * sizeof(telemetry::Sample) + cpu_rows * 64.0);
}

/**
 * Finished records whose telemetry is sampled together across the
 * pool. A fixed constant, so batch boundaries depend only on the
 * replay, never on the thread count.
 */
constexpr std::size_t telemetry_batch = 512;

/** A finished record waiting for its telemetry and its turn at the sink. */
struct PendingRecord
{
    core::JobRecord record;
    /** Run time to sample over; 0 when the record carries no telemetry. */
    Seconds sample_seconds = 0.0;
    std::uint64_t samples = 0;
};

} // namespace

TraceSynthesizer::TraceSynthesizer(const CalibrationProfile &profile,
                                   const SynthesisOptions &options)
    : profile_(profile), options_(options)
{
    AIWC_ASSERT(options.scale > 0.0, "scale must be positive");
}

int
TraceSynthesizer::scaledUsers() const
{
    return std::max(
        10, static_cast<int>(std::lround(profile_.users.num_users *
                                         options_.scale)));
}

int
TraceSynthesizer::scaledNodes() const
{
    return std::max(4, static_cast<int>(std::lround(224 * options_.scale)));
}

int
TraceSynthesizer::scaledTimeseriesJobs() const
{
    return std::max(
        50, static_cast<int>(std::lround(
                profile_.monitoring.timeseries_jobs * options_.scale)));
}

SynthesisResult
TraceSynthesizer::run() const
{
    SynthesisResult result;
    runImpl(result, [&result](core::JobRecord &&rec) {
        result.dataset.add(std::move(rec));
    });
    return result;
}

StreamReplayResult
TraceSynthesizer::runStreaming(const RecordSink &sink) const
{
    AIWC_CHECK(sink, "streaming replay needs a record sink");
    // The scratch result holds the run-level aggregates and the
    // internal telemetry profiles; its dataset stays empty — records
    // flow straight into the sink.
    SynthesisResult scratch;
    StreamReplayResult out;
    runImpl(scratch, [&](core::JobRecord &&rec) {
        ++out.records;
        sink(std::move(rec));
    });
    out.scheduler_stats = scratch.scheduler_stats;
    out.num_users = scratch.num_users;
    out.cluster_nodes = scratch.cluster_nodes;
    out.central_store_bytes = scratch.central_store_bytes;
    out.peak_spool_bytes = scratch.peak_spool_bytes;
    return out;
}

void
TraceSynthesizer::runImpl(SynthesisResult &result,
                          const RecordSink &sink) const
{
    obs::TraceSpan run_span("synthesize.run");
    obs::MetricsRegistry::global().counter("aiwc.workload.synthesis_runs")
        .add(1);
    Rng master(options_.seed);
    Rng pop_rng = master.split();
    Rng arrival_rng = master.split();
    Rng job_rng = master.split();
    Rng detail_rng = master.split();

    result.num_users = scaledUsers();
    result.cluster_nodes = scaledNodes();

    const UserPopulation population(profile_, pop_rng, result.num_users);
    const JobGenerator generator(profile_);

    // --- Arrival accounting: expected jobs per arrival of each kind,
    // so arrays do not distort the target job count or CPU fraction.
    Rng mc_rng = master.split();
    const CpuJobParams &cj = profile_.cpu_jobs;
    const double e_cpu = expectedExpansion(
        cj.array_prob, cj.array_median, cj.array_sigma, cj.array_max,
        mc_rng);

    // Per-class corrections: arrays multiply a class's jobs, and the
    // 30 s filter removes part of them. The paper's Fig. 15 mix is a
    // *post-filter job* mix, so the arrival-level class draw weights
    // are job_fraction / (expansion x survival), renormalized.
    std::array<double, num_lifecycles> expansion{}, survival{},
        class_correction{};
    for (int c = 0; c < num_lifecycles; ++c) {
        const auto i = static_cast<std::size_t>(c);
        const ClassParams &cp = profile_.classes[i];
        expansion[i] =
            expectedExpansion(cp.array_prob, cp.array_median,
                              cp.array_sigma, cp.array_max, mc_rng);
        // Activity-weighted survival: heavy users run shorter jobs
        // (negative runtime slope), so their jobs are filtered more
        // often — average over users drawn by activity.
        double surv = 0.0;
        constexpr int user_draws = 32;
        for (int d = 0; d < user_draws; ++d) {
            const UserProfile &u = population.sampleByActivity(mc_rng);
            surv += generator.survivalProbability(
                static_cast<Lifecycle>(c), mc_rng, 250,
                u.runtime_scale);
        }
        survival[i] = surv / user_draws;
        class_correction[i] = 1.0 / (expansion[i] * survival[i]);
    }
    // Expected post-expansion jobs per GPU arrival under the corrected
    // class draw: sum over classes of P(draw c) * expansion_c.
    double e_gpu = 0.0;
    {
        double wsum = 0.0, jobs_per_gpu_arrival = 0.0;
        for (int c = 0; c < num_lifecycles; ++c) {
            const auto i = static_cast<std::size_t>(c);
            const double w = profile_.classes[i].job_fraction *
                             class_correction[i];
            wsum += w;
            jobs_per_gpu_arrival += w * expansion[i];
        }
        e_gpu = jobs_per_gpu_arrival / wsum;
    }

    // Probability an *arrival* is CPU-side such that the *job* mix
    // hits the calibrated CPU fraction.
    const double f = cj.fraction_of_jobs;
    const double q_cpu =
        f * e_gpu / (e_cpu * (1.0 - f) + f * e_gpu);
    const double jobs_per_arrival =
        q_cpu * e_cpu + (1.0 - q_cpu) * e_gpu;

    const int target_jobs = std::max(
        50, static_cast<int>(std::lround(profile_.arrivals.total_jobs *
                                         options_.scale)));
    const int target_arrivals = std::max(
        10,
        static_cast<int>(std::lround(target_jobs / jobs_per_arrival)));

    const ArrivalProcess arrivals(profile_.arrivals, target_arrivals);
    const std::vector<Seconds> instants = arrivals.generate(arrival_rng);

    // --- Generate the job stream. ---
    std::vector<GeneratedJob> jobs;
    jobs.reserve(static_cast<std::size_t>(target_jobs * 11 / 10));
    JobId next_id = 0;
    std::size_t gpu_jobs = 0;
    obs::TraceSpan generate_span("synthesize.generate");
    for (const Seconds t : instants) {
        const UserProfile &user = population.sampleByActivity(job_rng);
        if (job_rng.chance(q_cpu)) {
            int n = 1;
            if (job_rng.chance(cj.array_prob)) {
                n = arraySize(cj.array_median, cj.array_sigma,
                              cj.array_max, job_rng);
            }
            for (int i = 0; i < n; ++i) {
                GeneratedJob j;
                j.request = generator.cpuJob(user, t, next_id++, job_rng);
                jobs.push_back(std::move(j));
            }
        } else {
            // Class draw from the user's mix, corrected for array
            // expansion and filter survival (see above).
            std::array<double, num_lifecycles> w{};
            double wsum = 0.0;
            for (int c = 0; c < num_lifecycles; ++c) {
                const auto ci = static_cast<std::size_t>(c);
                w[ci] = user.class_mix[ci] * class_correction[ci];
                wsum += w[ci];
            }
            double u = job_rng.uniform() * wsum;
            int drawn = num_lifecycles - 1;
            for (int c = 0; c < num_lifecycles; ++c) {
                u -= w[static_cast<std::size_t>(c)];
                if (u <= 0.0) {
                    drawn = c;
                    break;
                }
            }
            const Lifecycle c = static_cast<Lifecycle>(drawn);
            const ClassParams &cp = profile_.forClass(c);
            int n = 1;
            if (job_rng.chance(cp.array_prob)) {
                n = arraySize(cp.array_median, cp.array_sigma,
                              cp.array_max, job_rng);
            }
            for (int i = 0; i < n; ++i) {
                jobs.push_back(
                    generator.gpuJob(user, t, next_id++, job_rng, c));
                ++gpu_jobs;
            }
        }
    }

    generate_span.end();
    obs::MetricsRegistry::global().counter("aiwc.workload.jobs_generated")
        .add(jobs.size());

    // --- Mark the detailed time-series subset. ---
    const double detail_prob =
        gpu_jobs == 0 ? 0.0
                      : std::min(1.0, static_cast<double>(
                                          scaledTimeseriesJobs()) /
                                          static_cast<double>(gpu_jobs));
    std::vector<bool> detailed(jobs.size(), false);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (jobs[i].request.isGpuJob())
            detailed[i] = detail_rng.chance(detail_prob);

    result.profiles.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        result.profiles[jobs[i].request.id] = jobs[i].profile;

    // --- Telemetry plumbing. ---
    const telemetry::PowerModel power(profile_.power);
    const telemetry::GpuSampler sampler(power, profile_.monitoring);
    telemetry::NodeSpool spool;
    telemetry::EpilogCollector collector(spool);

    // A job's telemetry is a pure function of its profile, run time
    // and detail flag (it draws from its own telemetry_seed), and the
    // replay never reads it. So finished records queue up here, and
    // flush() samples a whole batch across the pool before handing the
    // records to the sink in completion order: every output bit is the
    // same as sampling each job in its epilog.
    std::vector<PendingRecord> pending;
    pending.reserve(telemetry_batch);
    auto &telemetry_jobs = obs::MetricsRegistry::global().counter(
        "aiwc.workload.telemetry_jobs");
    auto &telemetry_samples = obs::MetricsRegistry::global().counter(
        "aiwc.workload.telemetry_samples");
    auto &telemetry_detailed = obs::MetricsRegistry::global().counter(
        "aiwc.workload.telemetry_detailed_jobs");

    auto flush = [&] {
        obs::TraceSpan span("synthesize.telemetry");
        parallelFor(globalPool(), pending.size(), [&](std::size_t i) {
            PendingRecord &p = pending[i];
            if (p.sample_seconds <= 0.0)
                return;
            core::JobRecord &rec = p.record;
            const bool detail = detailed[rec.id];
            auto tele = sampler.sampleJob(result.profiles[rec.id],
                                          p.sample_seconds, detail);
            p.samples = tele.samples_generated;
            rec.per_gpu = std::move(tele.per_gpu);
            rec.has_timeseries = detail;
            if (detail)
                rec.phases = std::move(tele.phases);
        });
        std::uint64_t jobs = 0, samples = 0, detailed_jobs = 0;
        for (PendingRecord &p : pending) {
            jobs += p.sample_seconds > 0.0;
            samples += p.samples;
            detailed_jobs += p.record.has_timeseries;
            sink(std::move(p.record));
        }
        telemetry_jobs.add(jobs);
        telemetry_samples.add(samples);
        telemetry_detailed.add(detailed_jobs);
        pending.clear();
    };

    auto finalize = [&](const sched::Job &job) {
        PendingRecord &p = pending.emplace_back();
        core::JobRecord &rec = p.record;
        rec.id = job.request.id;
        rec.user = job.request.user;
        rec.interface = job.request.interface;
        rec.true_class = job.request.lifecycle;
        rec.terminal = job.terminal;
        rec.submit_time = job.request.submit_time;
        rec.start_time = job.start_time;
        rec.end_time = job.end_time;
        rec.walltime_limit = job.request.walltime_limit;
        rec.gpus = job.request.gpus;
        rec.cpu_slots = job.request.cpu_slots;
        rec.ram_gb = job.request.ram_gb;
        if (job.request.isGpuJob() && options_.telemetry &&
            job.runTime() > 0.0)
            p.sample_seconds = job.runTime();
        if (pending.size() == telemetry_batch)
            flush();
    };

    if (options_.through_scheduler) {
        obs::TraceSpan replay_span("synthesize.scheduler_replay");
        sim::Cluster cluster(sim::miniSupercloudSpec(result.cluster_nodes));
        sim::Simulation sim;
        sched::SlurmScheduler scheduler(sim, cluster);

        // A scaled-down cluster cannot host the largest requests the
        // full-size workload contains; clamp them so the scaled study
        // keeps the same load/capacity ratio instead of dropping jobs.
        const auto &spec = cluster.spec();
        const int max_gpus = std::max(spec.totalGpus() / 2, 2);
        const int max_slots =
            std::max(spec.nodes / 2, 1) * spec.node.cpuSlots();
        for (auto &j : jobs) {
            auto &req = j.request;
            if (req.gpus > max_gpus) {
                req.gpus = max_gpus;
                j.profile.num_gpus = max_gpus;
                j.profile.idle_gpus =
                    std::min(j.profile.idle_gpus, max_gpus - 1);
                result.profiles[req.id] = j.profile;
            }
            req.cpu_slots = std::min(req.cpu_slots, max_slots);
            req.ram_gb = std::min(
                req.ram_gb, spec.node.ram_gb * std::max(spec.nodes / 2, 1));
        }

        scheduler.setProlog([&](const sched::Job &job) {
            std::vector<NodeId> nodes;
            nodes.reserve(job.allocation.shares.size());
            for (const auto &share : job.allocation.shares)
                nodes.push_back(share.node);
            collector.onProlog(job.request.id, nodes);
        });
        scheduler.setEpilog([&](const sched::Job &job) {
            collector.recordSamples(
                job.request.id,
                nominalSpoolBytes(job, profile_.monitoring));
            collector.onEpilog(job.request.id);
            finalize(job);
        });

        for (const auto &j : jobs)
            scheduler.submit(j.request);
        sim.run();
        flush();
        // End-of-run self-check: after the queue drains, every resource
        // must be back in the free pool and the ledgers must balance.
        // A leak here would silently skew every downstream figure.
        scheduler.auditInvariants();
        AIWC_CHECK_EQ(cluster.freeGpus(), cluster.spec().totalGpus(),
                      "GPUs leaked by the scheduler replay");
        result.scheduler_stats = scheduler.stats();
    } else {
        for (const auto &j : jobs) {
            sched::Job job;
            job.request = j.request;
            job.state = sched::JobState::Finished;
            job.start_time = j.request.submit_time;
            job.end_time = job.start_time + j.request.observedDuration();
            job.terminal = j.request.observedEnd();
            finalize(job);
        }
        flush();
    }

    result.central_store_bytes = collector.centralStoreBytes();
    result.peak_spool_bytes = collector.peakNodeOccupancy();
}

std::uint64_t
TraceSynthesizer::replicateSeed(std::uint64_t base, int replicate)
{
    AIWC_CHECK(replicate >= 0, "replicate index must be non-negative");
    if (replicate == 0)
        return base;
    // splitmix64 finalizer over a golden-ratio stride: adjacent
    // replicate indices land on uncorrelated seeds.
    std::uint64_t z = base +
                      0x9e3779b97f4a7c15ull *
                          static_cast<std::uint64_t>(replicate);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<SynthesisResult>
TraceSynthesizer::runReplicates(int count) const
{
    AIWC_CHECK(count >= 0, "replicate count must be non-negative");
    std::vector<SynthesisResult> results(
        static_cast<std::size_t>(count));
    // Each replicate is an independent pipeline writing its own slot,
    // so the fan-out is embarrassingly parallel and the result vector
    // is identical for any pool size.
    obs::MetricsRegistry::global().counter("aiwc.workload.replicates")
        .add(results.size());
    parallelFor(globalPool(), results.size(), [&](std::size_t r) {
        obs::TraceSpan span("synthesize.replicate " + std::to_string(r));
        SynthesisOptions opts = options_;
        opts.seed = replicateSeed(options_.seed, static_cast<int>(r));
        results[r] = TraceSynthesizer(profile_, opts).run();
    });
    return results;
}

} // namespace aiwc::workload
