/**
 * @file
 * Reproduces the paper's Table I and Figs. 3-17 in paper order, each
 * as paper-vs-measured comparisons followed by the analyzer's full
 * report tables.
 *
 * The synthetic study is built once and every analyzer runs once. A
 * report that several figures read (phases, bottlenecks, per-user
 * behaviour, multi-GPU, life-cycle) prints its tables once, after the
 * last figure it covers. The analyzer kernels are timed by perfbench's
 * `analyze` workload, so this binary registers no timers.
 *
 * Usage: AIWC_BENCH_SCALE=1.0 AIWC_BENCH_SEED=7 bench_figures
 *            [--threads N]
 */

#include "bench_common.hh"

#include <algorithm>
#include <vector>

#include "aiwc/core/bottleneck_analyzer.hh"
#include "aiwc/core/correlation_analyzer.hh"
#include "aiwc/core/lifecycle_analyzer.hh"
#include "aiwc/core/multi_gpu_analyzer.hh"
#include "aiwc/core/phase_analyzer.hh"
#include "aiwc/core/power_analyzer.hh"
#include "aiwc/core/report_writer.hh"
#include "aiwc/core/service_time_analyzer.hh"
#include "aiwc/core/user_behavior_analyzer.hh"
#include "aiwc/core/utilization_analyzer.hh"
#include "aiwc/opportunity/power_cap_planner.hh"
#include "aiwc/sim/cluster_factory.hh"

namespace
{

using namespace aiwc;
namespace paper = core::paper;

/** The analyzer's full report tables, then a blank line. */
template <typename Report>
void
printReport(std::ostream &os, const Report &report)
{
    core::ReportWriter(os).print(report);
    os << '\n';
}

void
printTable1(std::ostream &os)
{
    const sim::ClusterSpec spec = sim::supercloudSpec();
    sim::printSpec(spec, os);

    bench::Comparison cmp("Table I cross-check");
    cmp.row("nodes", 224, spec.nodes, 0);
    cmp.row("GPUs", 448, spec.totalGpus(), 0);
    cmp.row("CPU cores", 8960, spec.totalCpuCores(), 0);
    cmp.row("node RAM (GB)", 384, spec.node.ram_gb, 0);
    cmp.row("GPU RAM (GB)", 32, spec.node.gpu.memory_gb, 0);
    cmp.row("GPU TDP (W)", 300, spec.node.gpu.tdp_watts, 0);
    os << '\n';
    cmp.print(os);
}

void
printFig03(std::ostream &os, const core::ServiceTimeReport &report)
{
    bench::Comparison a("Fig. 3a: run times (minutes)");
    a.row("GPU p25", paper::gpu_runtime_p25_min,
          report.gpu_runtime_min.quantile(0.25));
    a.row("GPU p50", paper::gpu_runtime_p50_min,
          report.gpu_runtime_min.quantile(0.50));
    a.row("GPU p75", paper::gpu_runtime_p75_min,
          report.gpu_runtime_min.quantile(0.75));
    a.row("CPU p50", paper::cpu_runtime_p50_min,
          report.cpu_runtime_min.quantile(0.50));
    a.print(os);

    bench::Comparison b("Fig. 3b: queue waits");
    b.row("GPU jobs waiting < 1 min (%)",
          100.0 * paper::gpu_wait_under_1min_frac,
          100.0 * report.gpuWaitUnder(60.0));
    b.row("CPU jobs waiting > 1 min (%)",
          100.0 * paper::cpu_wait_over_1min_frac,
          100.0 * report.cpuWaitOver(60.0));
    b.row("GPU median wait (% of service, paper <2)",
          paper::gpu_wait_service_pct_median_max,
          report.gpu_wait_pct.quantile(0.5), 2);
    b.print(os);

    printReport(os, report);
}

void
printFig04(std::ostream &os, const core::UtilizationReport &report)
{
    bench::Comparison a("Fig. 4a: mean utilization (%)");
    a.row("SM median", paper::sm_util_median_pct,
          report.sm_pct.quantile(0.5));
    a.row("memory BW median", paper::membw_util_median_pct,
          report.membw_pct.quantile(0.5));
    a.row("memory size median", paper::memsize_util_median_pct,
          report.memsize_pct.quantile(0.5));
    a.row("jobs > 50% SM (%)", 100.0 * paper::sm_over_50_frac,
          100.0 * report.fractionAbove(Resource::Sm, 50.0));
    a.row("jobs > 50% memBW (%)", 100.0 * paper::membw_over_50_frac,
          100.0 * report.fractionAbove(Resource::MemoryBw, 50.0));
    a.row("jobs > 50% memsize (%)", 100.0 * paper::memsize_over_50_frac,
          100.0 * report.fractionAbove(Resource::MemorySize, 50.0));
    a.print(os);

    // Fig. 4b's claim is a *shape*: an approximately uniform (linear)
    // CDF of PCIe bandwidths. Print decile spacings: a uniform CDF
    // has equal spacing.
    bench::Comparison b("Fig. 4b: PCIe bandwidth CDF (deciles, %)");
    for (int d = 1; d <= 9; d += 2) {
        const double q = d / 10.0;
        b.rowText("Tx p" + formatNumber(d * 10, 0), "linear",
                  formatNumber(report.pcie_tx_pct.quantile(q), 1));
    }
    b.print(os);

    printReport(os, report);
}

void
printFig05(std::ostream &os, const core::InterfaceUtilization &report)
{
    bench::Comparison mix("Fig. 5: interface population");
    mix.row("map-reduce (%)", 100.0 * paper::mapreduce_job_frac,
            100.0 * report.job_fraction[0]);
    mix.row("batch (%)", 100.0 * paper::batch_job_frac,
            100.0 * report.job_fraction[1]);
    mix.row("interactive (%)", 100.0 * paper::interactive_job_frac,
            100.0 * report.job_fraction[2]);
    mix.row("other (%)", 100.0 * paper::other_job_frac,
            100.0 * report.job_fraction[3]);
    mix.print(os);

    // The figure's claim is an ordering: other > batch >>
    // interactive ~ map-reduce for both SM and memBW.
    bench::Comparison order("Fig. 5: median SM by interface (%)");
    order.rowText("other (highest)", "highest",
                  formatNumber(report.sm[3].median, 1));
    order.rowText("batch", "second",
                  formatNumber(report.sm[1].median, 1));
    order.rowText("map-reduce (low)", "low",
                  formatNumber(report.sm[0].median, 1));
    order.rowText("interactive (low)", "low",
                  formatNumber(report.sm[2].median, 1));
    order.print(os);

    printReport(os, report);
}

void
printFig06(std::ostream &os, const core::PhaseReport &report)
{
    os << "time-series subset size: " << report.jobs << " jobs\n\n";

    bench::Comparison a("Fig. 6a: active time (% of run)");
    a.row("p25", paper::active_frac_p25_pct,
          report.active_fraction_pct.quantile(0.25));
    a.row("p50", paper::active_frac_p50_pct,
          report.active_fraction_pct.quantile(0.50));
    a.row("p75", paper::active_frac_p75_pct,
          report.active_fraction_pct.quantile(0.75));
    a.print(os);

    bench::Comparison b("Fig. 6b: interval-length CoV (%)");
    b.row("idle median", paper::idle_interval_cov_median_pct,
          report.idle_interval_cov_pct.quantile(0.5), 0);
    b.row("active median", paper::active_interval_cov_median_pct,
          report.active_interval_cov_pct.quantile(0.5), 0);
    b.print(os);
}

void
printFig07(std::ostream &os, const core::PhaseReport &phases,
           const core::BottleneckReport &bn)
{
    bench::Comparison a("Fig. 7a: active-phase utilization CoV (%)");
    a.row("SM median", paper::active_sm_cov_median_pct,
          phases.active_sm_cov_pct.quantile(0.5));
    a.row("memBW median", paper::active_membw_cov_median_pct,
          phases.active_membw_cov_pct.quantile(0.5));
    a.row("memsize median", paper::active_memsize_cov_median_pct,
          phases.active_memsize_cov_pct.quantile(0.5));
    a.row("SM p75 (paper: >=23)", paper::sm_cov_p75_pct,
          phases.active_sm_cov_pct.quantile(0.75));
    a.print(os);

    bench::Comparison b("Fig. 7b: bottlenecked jobs (%)");
    b.row("SM", 100.0 * paper::sm_bottleneck_frac,
          100.0 * bn.single_of(Resource::Sm));
    b.row("memory BW (~0)", 100.0 * paper::membw_bottleneck_frac,
          100.0 * bn.single_of(Resource::MemoryBw));
    b.print(os);

    printReport(os, phases);
}

void
printFig08(std::ostream &os, const core::BottleneckReport &report)
{
    bench::Comparison a("Fig. 8a: single-resource bottlenecks (%)");
    a.row("SM", 100.0 * paper::sm_bottleneck_frac,
          100.0 * report.single_of(Resource::Sm));
    a.row("memory BW (~0)", 100.0 * paper::membw_bottleneck_frac,
          100.0 * report.single_of(Resource::MemoryBw));
    a.print(os);

    bench::Comparison b("Fig. 8b: two-resource bottlenecks (%)");
    b.row("PCIe Rx & SM", 100.0 * paper::rx_and_sm_bottleneck_frac,
          100.0 * report.pair_of(Resource::PcieRx, Resource::Sm));
    double worst_pair = 0.0;
    for (double p : report.pairs)
        worst_pair = std::max(worst_pair, p);
    b.row("max pair (paper: <10%)",
          100.0 * paper::any_pair_bottleneck_max_frac,
          100.0 * worst_pair);
    b.print(os);

    printReport(os, report);
}

void
printFig09(std::ostream &os, const core::PowerReport &report,
           const std::vector<opportunity::PowerCapPlan> &plans)
{
    bench::Comparison a("Fig. 9a: power draw (W)");
    a.row("median average", paper::power_avg_median_w,
          report.avg_watts.quantile(0.5), 0);
    a.row("median maximum", paper::power_max_median_w,
          report.max_watts.quantile(0.5), 0);
    a.print(os);

    bench::Comparison b("Fig. 9b: 150 W cap impact");
    b.row("unimpacted (%) (paper: >60)",
          100.0 * paper::cap150_unimpacted_min_frac,
          100.0 * report.caps[0].unimpacted);
    b.row("impacted by avg (%) (paper: <10)",
          100.0 * paper::cap150_avg_impacted_max_frac,
          100.0 * report.caps[0].impacted_by_avg);
    b.print(os);

    core::ReportWriter(os).print(report);

    // Over-provisioning what-if (our quantification of the takeaway).
    os << "== over-provisioning what-if ==\n";
    TextTable t({"cap", "GPUs per budget", "weighted slowdown",
                 "net throughput gain"});
    for (const auto &p : plans) {
        t.addRow({formatNumber(p.cap_watts, 0) + " W",
                  formatNumber(p.gpu_multiplier, 2) + "x",
                  formatNumber(p.weighted_slowdown, 3) + "x",
                  formatPercent(p.throughput_gain)});
    }
    t.print(os);
    os << '\n';
}

void
printFig10(std::ostream &os, const core::UserBehaviorReport &report)
{
    bench::Comparison a("Fig. 10: per-user averages");
    a.row("avg runtime p25 (min)", paper::user_avg_runtime_p25_min,
          report.avg_runtime_min.quantile(0.25), 0);
    a.row("avg runtime p50 (min)", paper::user_avg_runtime_p50_min,
          report.avg_runtime_min.quantile(0.50), 0);
    a.row("avg runtime p75 (min)", paper::user_avg_runtime_p75_min,
          report.avg_runtime_min.quantile(0.75), 0);
    a.row("avg SM median (%)", paper::user_avg_sm_median_pct,
          report.avg_sm_pct.quantile(0.5));
    a.row("avg memBW median (%)", paper::user_avg_membw_median_pct,
          report.avg_membw_pct.quantile(0.5));
    a.row("avg memsize median (%)", paper::user_avg_memsize_median_pct,
          report.avg_memsize_pct.quantile(0.5));
    a.row("users > 20% avg SM (%)", 100.0 * paper::user_sm_over20_frac,
          100.0 * report.avg_sm_pct.tail(20.0));
    a.row("users > 20% avg memBW (%)",
          100.0 * paper::user_membw_over20_frac,
          100.0 * report.avg_membw_pct.tail(20.0));
    a.print(os);
}

void
printFig11(std::ostream &os, const core::UserBehaviorReport &report)
{
    bench::Comparison a("Fig. 11: within-user CoV (%)");
    a.row("runtime p25", paper::user_runtime_cov_p25_pct,
          report.runtime_cov_pct.quantile(0.25), 0);
    a.row("runtime p50", paper::user_runtime_cov_p50_pct,
          report.runtime_cov_pct.quantile(0.50), 0);
    a.row("runtime p75", paper::user_runtime_cov_p75_pct,
          report.runtime_cov_pct.quantile(0.75), 0);
    a.row("SM util median", paper::user_sm_cov_median_pct,
          report.sm_cov_pct.quantile(0.5), 0);
    a.row("memBW util median", paper::user_membw_cov_median_pct,
          report.membw_cov_pct.quantile(0.5), 0);
    a.row("memsize util median", paper::user_memsize_cov_median_pct,
          report.memsize_cov_pct.quantile(0.5), 0);
    a.print(os);

    bench::Comparison c("Sec. IV: activity concentration");
    c.row("top 5% users' job share (%)",
          100.0 * paper::top5pct_user_job_share,
          100.0 * report.top5_job_share);
    c.row("top 20% users' job share (%)",
          100.0 * paper::top20pct_user_job_share,
          100.0 * report.top20_job_share);
    c.row("median jobs per user", paper::median_jobs_per_user,
          report.median_jobs_per_user, 0);
    c.print(os);

    printReport(os, report);
}

void
printFig12(std::ostream &os, const core::CorrelationReport &report)
{
    const auto rho = [&](core::UserFeature f) {
        return report.by_jobs.features[static_cast<std::size_t>(f)]
            .coefficient;
    };
    bench::Comparison a("Fig. 12: Spearman rho vs #jobs");
    a.rowText("avg SM util",
              "high (+" + formatNumber(paper::activity_vs_avg_util_rho_min,
                                       1) + " or more)",
              formatNumber(rho(core::UserFeature::AvgSm), 2));
    a.rowText("avg mem util", "high positive",
              formatNumber(rho(core::UserFeature::AvgMembw), 2));
    a.rowText("CoV SM util",
              "low (< " + formatNumber(paper::activity_vs_cov_rho_max, 1) +
                  ")",
              formatNumber(rho(core::UserFeature::CovSm), 2));
    a.rowText("CoV mem util", "low",
              formatNumber(rho(core::UserFeature::CovMembw), 2));
    a.print(os);

    printReport(os, report);
}

void
printFig13(std::ostream &os, const core::MultiGpuReport &report)
{
    bench::Comparison a("Fig. 13a: job-count shares (%)");
    a.row("1 GPU", 100.0 * paper::single_gpu_job_frac,
          100.0 * report.job_fraction[0]);
    a.row("> 2 GPUs", 100.0 * paper::over2_gpu_job_frac,
          100.0 * (report.job_fraction[2] + report.job_fraction[3]));
    a.row(">= 9 GPUs (paper: <1)", 100.0 * paper::over8_gpu_job_frac,
          100.0 * report.job_fraction[3]);
    a.print(os);

    bench::Comparison b("Fig. 13b: GPU-hour shares (%)");
    b.row("multi-GPU jobs", 100.0 * paper::multi_gpu_hour_share,
          100.0 * (1.0 - report.hour_fraction[0]));
    b.print(os);

    bench::Comparison u("Sec. V: user multi-GPU reach (%)");
    u.row(">= 1 multi-GPU job", 100.0 * paper::users_with_multi_gpu,
          100.0 * report.users_multi);
    u.row(">= 3 GPUs", 100.0 * paper::users_with_3plus_gpu,
          100.0 * report.users_3plus);
    u.row(">= 9 GPUs", 100.0 * paper::users_with_9plus_gpu,
          100.0 * report.users_9plus);
    u.print(os);

    bench::Comparison w("Sec. V: median wait by size (s)");
    w.row("1 GPU", paper::wait_median_1gpu_s, report.median_wait_s[0]);
    w.row("2 GPUs", paper::wait_median_multi_s, report.median_wait_s[1]);
    w.row("3-8 GPUs", paper::wait_median_multi_s,
          report.median_wait_s[2]);
    w.print(os);
}

void
printFig14(std::ostream &os, const core::MultiGpuReport &report)
{
    bench::Comparison a("Fig. 14a: SM CoV across all GPUs (%)");
    a.rowText("~50% of jobs near zero", "<10 at p50",
              formatNumber(report.sm_cov_all_pct.quantile(0.5), 1));
    a.rowText("~40% of jobs very high", ">=100 at p75",
              formatNumber(report.sm_cov_all_pct.quantile(0.75), 1));
    a.row("jobs with half+ GPUs idle (%)",
          100.0 * paper::multi_gpu_idle_frac,
          100.0 * report.idle_gpu_job_fraction);
    a.print(os);

    bench::Comparison b("Fig. 14b: SM CoV across active GPUs (%)");
    b.rowText("p75 (paper: low)", "low",
              formatNumber(report.sm_cov_active_pct.quantile(0.75), 1));
    b.rowText("p90 (paper: low)", "low",
              formatNumber(report.sm_cov_active_pct.quantile(0.90), 1));
    b.print(os);

    printReport(os, report);
}

void
printFig15(std::ostream &os, const core::LifecycleReport &report)
{
    const auto m = [&](Lifecycle c) {
        return 100.0 * report.job_mix[static_cast<int>(c)];
    };
    const auto h = [&](Lifecycle c) {
        return 100.0 * report.hour_mix[static_cast<int>(c)];
    };

    bench::Comparison a("Fig. 15a: job mix (%)");
    a.row("mature", 100.0 * paper::mature_job_frac,
          m(Lifecycle::Mature));
    a.row("exploratory", 100.0 * paper::exploratory_job_frac,
          m(Lifecycle::Exploratory));
    a.row("development", 100.0 * paper::development_job_frac,
          m(Lifecycle::Development));
    a.row("IDE", 100.0 * paper::ide_job_frac, m(Lifecycle::Ide));
    a.print(os);

    bench::Comparison b("Fig. 15b: GPU-hour mix (%)");
    b.row("mature", 100.0 * paper::mature_hour_frac,
          h(Lifecycle::Mature));
    b.row("exploratory", 100.0 * paper::exploratory_hour_frac,
          h(Lifecycle::Exploratory));
    b.row("IDE", 100.0 * paper::ide_hour_frac, h(Lifecycle::Ide));
    b.print(os);

    bench::Comparison r("Sec. VI: median runtimes (min)");
    r.row("mature", paper::mature_runtime_median_min,
          report.median_runtime_min[static_cast<int>(Lifecycle::Mature)],
          0);
    r.row("exploratory", paper::exploratory_runtime_median_min,
          report.median_runtime_min[static_cast<int>(
              Lifecycle::Exploratory)],
          0);
    r.print(os);
}

void
printFig16(std::ostream &os, const core::LifecycleReport &report)
{
    const auto median = [&](Lifecycle c) {
        return report.sm_pct[static_cast<int>(c)].median;
    };
    bench::Comparison a("Fig. 16: median SM utilization (%)");
    a.row("mature", paper::mature_sm_median_pct,
          median(Lifecycle::Mature));
    a.row("exploratory", paper::exploratory_sm_median_pct,
          median(Lifecycle::Exploratory));
    a.row("development", paper::development_sm_median_pct,
          median(Lifecycle::Development));
    a.row("IDE", paper::ide_sm_median_pct, median(Lifecycle::Ide));
    a.rowText("IDE q3 (paper: 0%)", "0",
              formatNumber(
                  report.sm_pct[static_cast<int>(Lifecycle::Ide)].q3,
                  1));
    a.print(os);
}

void
printFig17(std::ostream &os, const core::LifecycleReport &report)
{
    bench::Comparison a("Fig. 17 headline statistics (%)");
    a.row("users with mature job share < 40 (paper: >50)",
          100.0 * paper::users_mature_share_below_40,
          100.0 * report.usersWithMatureJobShareBelow(0.40));
    a.row("users with mature GPU-hour share < 20 (paper: >50)",
          100.0 * paper::users_mature_hours_below_20,
          100.0 * report.usersWithMatureHourShareBelow(0.20));
    a.row("users with non-mature hours > 60 (paper: >25)",
          100.0 * paper::users_nonmature_hours_over_60,
          100.0 * report.usersWithNonMatureHoursAbove(0.60));
    a.print(os);

    // The stacked-area series itself: users sorted by mature share,
    // deciles of the sorted curve.
    auto users = report.users;
    std::sort(users.begin(), users.end(),
              [](const core::UserClassShares &x,
                 const core::UserClassShares &y) {
                  return x.job_share[0] < y.job_share[0];
              });
    os << "== Fig. 17a series: mature job share across sorted users ==\n";
    TextTable t({"user percentile", "mature", "exploratory",
                 "development", "IDE"});
    for (int d = 0; d <= 10; ++d) {
        const auto idx = std::min(
            users.size() - 1, users.size() * static_cast<std::size_t>(d) /
                                  10);
        const auto &u = users[idx];
        t.addRow({formatNumber(d * 10, 0) + "%",
                  formatPercent(u.job_share[0]),
                  formatPercent(u.job_share[1]),
                  formatPercent(u.job_share[2]),
                  formatPercent(u.job_share[3])});
    }
    t.print(os);
    os << '\n';

    printReport(os, report);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::applyThreadFlag(&argc, argv);
    if (argc > 1) {
        std::cerr << "usage: bench_figures [--threads N]\n";
        return 2;
    }
    std::ostream &os = std::cout;
    const core::Dataset &data = bench::dataset();
    bench::printBanner(os, "Table I and Figs. 3-17");

    printTable1(os);
    printFig03(os, core::ServiceTimeAnalyzer().analyze(data));
    const core::UtilizationAnalyzer utilization;
    printFig04(os, utilization.analyze(data));
    printFig05(os, utilization.analyzeByInterface(data));

    const auto phases = core::PhaseAnalyzer().analyze(data);
    const auto bottlenecks = core::BottleneckAnalyzer().analyze(data);
    printFig06(os, phases);
    printFig07(os, phases, bottlenecks);
    printFig08(os, bottlenecks);
    printFig09(os, core::PowerAnalyzer().analyze(data),
               opportunity::PowerCapPlanner().plan(data));

    const auto users = core::UserBehaviorAnalyzer().analyze(data);
    printFig10(os, users);
    printFig11(os, users);
    printFig12(os, core::CorrelationAnalyzer().analyze(data));

    const auto multi_gpu = core::MultiGpuAnalyzer().analyze(data);
    printFig13(os, multi_gpu);
    printFig14(os, multi_gpu);

    const auto lifecycle = core::LifecycleAnalyzer().analyze(data);
    printFig15(os, lifecycle);
    printFig16(os, lifecycle);
    printFig17(os, lifecycle);
    return 0;
}
