#include "aiwc/opportunity/mig_planner.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "aiwc/base/logging.hh"

namespace aiwc::opportunity
{

int
MigPlanner::slicesFor(const core::JobRecord &job) const
{
    // Jobs that ever saturate compute or memory need the whole GPU;
    // slicing them would change their behaviour.
    if (job.maxUtilization(Resource::Sm) >= 0.995 ||
        job.maxUtilization(Resource::MemorySize) >= 0.995) {
        return slices_per_gpu_;
    }
    const double demand =
        headroom_ * std::max(job.meanUtilization(Resource::Sm),
                             job.meanUtilization(Resource::MemorySize));
    const int slices = static_cast<int>(
        std::ceil(demand * static_cast<double>(slices_per_gpu_)));
    return std::clamp(slices, 1, slices_per_gpu_);
}

MigPlan
MigPlanner::plan(const core::Dataset &dataset) const
{
    AIWC_ASSERT(slices_per_gpu_ >= 1, "need at least one slice");
    MigPlan out;
    out.slices_per_gpu = slices_per_gpu_;

    // Candidates: single-GPU jobs in start order.
    const std::span<const std::int32_t> gpu_count =
        dataset.columns().gpus();
    const std::span<const double> start = dataset.columns().startTime();
    auto jobs = dataset.gpuJobIndices();
    std::erase_if(jobs, [&](std::uint32_t i) { return gpu_count[i] != 1; });
    std::sort(jobs.begin(), jobs.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return start[a] < start[b];
              });
    out.jobs = jobs.size();
    if (jobs.empty())
        return out;

    struct Resident
    {
        Seconds end;
        int gpu;
        int slices;
    };
    struct GpuState
    {
        int free = 0;
        int resident_jobs = 0;
    };

    std::vector<Resident> running;
    std::vector<GpuState> gpus;
    int exclusive_running = 0;
    double slice_sum = 0.0;

    auto retire = [&](Seconds now) {
        for (auto it = running.begin(); it != running.end();) {
            if (it->end <= now) {
                gpus[static_cast<std::size_t>(it->gpu)].free +=
                    it->slices;
                gpus[static_cast<std::size_t>(it->gpu)].resident_jobs -=
                    1;
                --exclusive_running;
                it = running.erase(it);
            } else {
                ++it;
            }
        }
    };

    for (const std::uint32_t i : jobs) {
        const core::JobRecord &job = dataset.records()[i];
        retire(job.start_time);
        const int need = slicesFor(job);
        slice_sum += need;
        if (need == slices_per_gpu_)
            out.full_gpu_jobs += 1.0;

        // Best-fit: tightest GPU that can host the slices.
        int best = -1;
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            if (gpus[g].free >= need &&
                (best < 0 ||
                 gpus[g].free < gpus[static_cast<std::size_t>(best)]
                                     .free)) {
                best = static_cast<int>(g);
            }
        }
        if (best < 0) {
            gpus.push_back(GpuState{slices_per_gpu_, 0});
            best = static_cast<int>(gpus.size()) - 1;
        }
        auto &gpu = gpus[static_cast<std::size_t>(best)];
        if (gpu.resident_jobs > 0) {
            // Slicing an occupied GPU differently = a repartition,
            // which today needs idle time and manual resets.
            ++out.repartition_events;
        }
        gpu.free -= need;
        gpu.resident_jobs += 1;
        running.push_back(Resident{job.end_time, best, need});
        ++exclusive_running;

        int in_use = 0;
        for (const auto &g : gpus)
            if (g.resident_jobs > 0)
                ++in_use;
        out.peak_gpus_mig = std::max(out.peak_gpus_mig, in_use);
        out.peak_gpus_exclusive =
            std::max(out.peak_gpus_exclusive, exclusive_running);
    }

    out.mean_slices = slice_sum / static_cast<double>(jobs.size());
    out.full_gpu_jobs /= static_cast<double>(jobs.size());
    if (out.peak_gpus_exclusive > 0) {
        out.gpu_demand_reduction =
            1.0 - static_cast<double>(out.peak_gpus_mig) /
                      static_cast<double>(out.peak_gpus_exclusive);
    }
    out.reconfig_overhead_hours =
        static_cast<double>(out.repartition_events) * reconfig_seconds_ /
        3600.0;
    return out;
}

} // namespace aiwc::opportunity
