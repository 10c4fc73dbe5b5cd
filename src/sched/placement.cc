#include "aiwc/sched/placement.hh"

#include <algorithm>

#include "aiwc/base/check.hh"

namespace aiwc::sched
{

namespace
{

/**
 * CPU slots and RAM a GPU job needs on a node hosting `gpus_here` of
 * its `total_gpus` GPUs: a proportional share, rounded up.
 */
int
cpuShare(int total_slots, int gpus_here, int total_gpus)
{
    return (total_slots * gpus_here + total_gpus - 1) / total_gpus;
}

double
ramShare(double total_ram, int gpus_here, int total_gpus)
{
    return total_ram * static_cast<double>(gpus_here) /
           static_cast<double>(total_gpus);
}

} // namespace

std::optional<Allocation>
DensePlacement::place(const sim::Cluster &cluster,
                      const JobRequest &request) const
{
    if (request.isGpuJob())
        return placeGpuJob(cluster, request);
    return placeCpuJob(cluster, request);
}

bool
DensePlacement::capacityAllows(const sim::Cluster &cluster,
                               const JobRequest &request) const
{
    if (request.isGpuJob())
        return request.gpus <= cluster.freeGpus();
    const int slots_per_node = cluster.spec().node.cpuSlots();
    return (request.cpu_slots + slots_per_node - 1) / slots_per_node <=
           cluster.idleNodes();
}

std::optional<Allocation>
DensePlacement::placeGpuJob(const sim::Cluster &cluster,
                            const JobRequest &request) const
{
    const auto &nodes = cluster.nodes();
    const int want = request.gpus;

    // Pass 1: a single node that can host everything — by far the
    // common case (97.6% of jobs use <= 2 GPUs, which fit one
    // Supercloud node). Among candidates, prefer a node that already
    // hosts work (busiest-fit): GPU jobs pack together, preserving
    // fully-idle nodes for the whole-node CPU requests — the
    // co-location strategy Sec. III credits for the low GPU waits.
    const sim::Node *best = nullptr;
    for (const auto &node : nodes) {
        if (node.freeGpus() >= want &&
            node.fitsCpu(request.cpu_slots, request.ram_gb)) {
            if (!best || (node.freeCpuSlots() < best->freeCpuSlots())) {
                best = &node;
            }
        }
    }
    if (best) {
        Allocation plan;
        NodeShare share;
        share.node = best->id();
        share.cpu_slots = request.cpu_slots;
        share.ram_gb = request.ram_gb;
        share.gpus.resize(static_cast<std::size_t>(want));
        plan.shares.push_back(std::move(share));
        return plan;
    }

    // Pass 2: spread across the smallest window of neighbouring nodes
    // ("placed as densely as possible ... or on neighbouring nodes on
    // the network interconnect", Sec. V). We scan contiguous node-id
    // windows and take the first window satisfying the demand.
    for (std::size_t first = 0; first < nodes.size(); ++first) {
        int gathered = 0;
        std::size_t last = first;
        for (; last < nodes.size(); ++last) {
            const auto &node = nodes[last];
            const int here = node.freeGpus();
            if (here == 0 && last == first)
                break;  // window must start on a useful node
            gathered += here;
            if (gathered >= want)
                break;
        }
        if (gathered < want || last >= nodes.size())
            continue;

        // Build shares over [first, last], taking GPUs greedily.
        Allocation plan;
        int remaining = want;
        bool feasible = true;
        for (std::size_t n = first; n <= last && remaining > 0; ++n) {
            const auto &node = nodes[n];
            const int take = std::min(node.freeGpus(), remaining);
            if (take == 0)
                continue;
            const int slots = cpuShare(request.cpu_slots, take, want);
            const double ram = ramShare(request.ram_gb, take, want);
            if (!node.fitsCpu(slots, ram)) {
                feasible = false;
                break;
            }
            NodeShare share;
            share.node = node.id();
            share.cpu_slots = slots;
            share.ram_gb = ram;
            share.gpus.resize(static_cast<std::size_t>(take));
            plan.shares.push_back(std::move(share));
            remaining -= take;
        }
        if (feasible && remaining == 0)
            return plan;
    }
    return std::nullopt;
}

std::optional<Allocation>
DensePlacement::placeCpuJob(const sim::Cluster &cluster,
                            const JobRequest &request) const
{
    // CPU jobs "usually request all cores and full memory of the
    // nodes" (Sec. III): grant whole idle nodes, enough to cover the
    // slot demand.
    const auto &nodes = cluster.nodes();
    const int slots_per_node = cluster.spec().node.cpuSlots();
    const int nodes_needed =
        (request.cpu_slots + slots_per_node - 1) / slots_per_node;
    const double ram_per_node =
        std::min(request.ram_gb / nodes_needed, cluster.spec().node.ram_gb);

    Allocation plan;
    for (const auto &node : nodes) {
        if (static_cast<int>(plan.shares.size()) == nodes_needed)
            break;
        // Whole node: every slot and (almost) all RAM must be free.
        if (node.freeCpuSlots() == slots_per_node &&
            node.fitsCpu(slots_per_node, ram_per_node)) {
            NodeShare share;
            share.node = node.id();
            share.cpu_slots = slots_per_node;
            share.ram_gb = ram_per_node;
            plan.shares.push_back(std::move(share));
        }
    }
    if (static_cast<int>(plan.shares.size()) < nodes_needed)
        return std::nullopt;
    return plan;
}

void
DensePlacement::commit(sim::Cluster &cluster, JobId job,
                       Allocation &plan) const
{
    AIWC_CHECK(!plan.empty(), "committing an empty plan for job ", job);
    AIWC_CHECK_NE(job, invalid_id, "committing a plan for an invalid job");
    for (auto &share : plan.shares) {
        auto &node = cluster.node(share.node);
        node.allocateCpu(share.cpu_slots, share.ram_gb);
        const auto want = static_cast<int>(share.gpus.size());
        if (want > 0)
            share.gpus = node.allocateGpus(job, want);
        AIWC_CHECK_EQ(static_cast<int>(share.gpus.size()), want,
                      "placement plan went stale before commit");
    }
}

void
DensePlacement::release(sim::Cluster &cluster, const Allocation &plan) const
{
    AIWC_CHECK(!plan.empty(), "releasing an empty allocation");
    for (const auto &share : plan.shares) {
        auto &node = cluster.node(share.node);
        for (GpuId gpu : share.gpus)
            node.releaseGpu(gpu);
        node.releaseCpu(share.cpu_slots, share.ram_gb);
    }
}

} // namespace aiwc::sched
