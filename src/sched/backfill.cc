#include "aiwc/sched/backfill.hh"

#include <algorithm>
#include <vector>

#include "aiwc/base/check.hh"

namespace aiwc::sched
{

namespace
{

/** Nodes a CPU-only request claims, rounding slots up to whole nodes. */
int
wholeNodesFor(const JobRequest &request, const sim::ClusterSpec &spec)
{
    if (request.isGpuJob())
        return 0;
    const int per_node = spec.node.cpuSlots();
    return (request.cpu_slots + per_node - 1) / per_node;
}

} // namespace

BackfillWindow
computeWindow(const sim::Cluster &cluster,
              std::span<const RunningFootprint> running,
              const JobRequest &head, Seconds now)
{
    BackfillWindow window;

    const auto &spec = cluster.spec();
    AIWC_DCHECK_GE(head.gpus, 0, "head job with negative GPU demand");
    AIWC_DCHECK_GT(head.cpu_slots, 0, "head job with no CPU demand");
    int free_gpus = cluster.freeGpus();
    int free_nodes = cluster.idleNodes();

    const int need_gpus = head.gpus;
    const int need_nodes = wholeNodesFor(head, spec);

    for (const auto &fp : running) {
        AIWC_DCHECK_GE(fp.gpus, 0, "running footprint with negative GPUs");
        AIWC_DCHECK_GE(fp.whole_nodes, 0,
                       "running footprint with negative nodes");
    }
    std::vector<RunningFootprint> by_end(running.begin(), running.end());
    std::sort(by_end.begin(), by_end.end(),
              [](const RunningFootprint &a, const RunningFootprint &b) {
                  return a.expected_end < b.expected_end;
              });

    window.shadow_time = now;
    for (const auto &fp : by_end) {
        if (free_gpus >= need_gpus && free_nodes >= need_nodes)
            break;
        free_gpus += fp.gpus;
        free_nodes += fp.whole_nodes;
        window.shadow_time = std::max(window.shadow_time, fp.expected_end);
    }

    // If the demand still cannot be met (over-subscribed request), the
    // shadow extends past every running job; keep the last end time.
    window.spare_gpus = std::max(0, free_gpus - need_gpus);
    window.spare_nodes = std::max(0, free_nodes - need_nodes);
    return window;
}

bool
mayBackfill(const BackfillWindow &window, const JobRequest &candidate,
            const sim::ClusterSpec &spec, Seconds now)
{
    AIWC_DCHECK_GE(candidate.walltime_limit, 0.0,
                   "candidate with a negative wall-time limit");
    const Seconds expected_end = now + candidate.walltime_limit;
    if (expected_end <= window.shadow_time)
        return true;
    // Otherwise it must fit in capacity the head will not consume.
    if (candidate.isGpuJob())
        return candidate.gpus <= window.spare_gpus;
    return wholeNodesFor(candidate, spec) <= window.spare_nodes;
}

} // namespace aiwc::sched
