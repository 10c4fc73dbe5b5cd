/**
 * @file
 * Placement policy: where a job's GPUs, CPU slots, and RAM land.
 *
 * Mirrors the Supercloud behaviour described in Secs. III and V:
 * GPU jobs request few CPU slots and are co-located with other jobs on
 * the same node (GPUs themselves are exclusive); multi-GPU jobs are
 * placed as densely as possible, on one node or neighbouring nodes;
 * CPU-only jobs claim whole nodes because CPUs are their only compute.
 */

#pragma once

#include <optional>

#include "aiwc/sched/job.hh"
#include "aiwc/sim/resources.hh"

namespace aiwc::sched
{

/**
 * Dense first-fit placement. place() only searches; the scheduler
 * commits a returned plan with commit() so search stays side-effect
 * free (and usable by the backfill what-if pass).
 */
class DensePlacement
{
  public:
    /**
     * Find a placement for the request on the current cluster state.
     * @return nullopt when the job cannot start right now.
     */
    std::optional<Allocation> place(const sim::Cluster &cluster,
                                    const JobRequest &request) const;

    /**
     * O(1) necessary condition for place(): false means place() would
     * return nullopt, because the cluster has fewer free GPUs than a GPU
     * request needs, or fewer idle nodes than a CPU request's whole-node
     * grant. True does not promise a placement.
     */
    bool capacityAllows(const sim::Cluster &cluster,
                        const JobRequest &request) const;

    /** Apply a plan: claim CPU slots, RAM, and GPUs. */
    void commit(sim::Cluster &cluster, JobId job, Allocation &plan) const;

    /** Undo a committed plan at job end. */
    void release(sim::Cluster &cluster, const Allocation &plan) const;

  private:
    std::optional<Allocation> placeGpuJob(const sim::Cluster &cluster,
                                          const JobRequest &request) const;
    std::optional<Allocation> placeCpuJob(const sim::Cluster &cluster,
                                          const JobRequest &request) const;
};

} // namespace aiwc::sched

