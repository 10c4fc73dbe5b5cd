#include "aiwc/sim/resources.hh"

#include <algorithm>

#include "aiwc/base/check.hh"

namespace aiwc::sim
{

namespace
{

/** Tolerance for RAM accounting residue (see Node::fitsCpu). */
constexpr double ram_epsilon = 1e-6;

} // namespace

void
Gpu::assign(JobId job)
{
    // Check before mutating: a throwing fail handler (tests) must
    // observe unchanged state after a rejected misuse.
    AIWC_CHECK(!busy(), "GPU ", id_, " is already assigned to job ", job_,
               "; double-assign for job ", job);
    AIWC_CHECK_NE(job, invalid_id, "assigning GPU ", id_,
                  " to an invalid job id");
    job_ = job;
}

void
Gpu::release()
{
    AIWC_CHECK(busy(), "double-release of idle GPU ", id_);
    job_ = invalid_id;
}

void
Gpu::auditInvariants() const
{
    AIWC_CHECK(spec_ != nullptr, "GPU ", id_, " lost its spec");
    AIWC_CHECK_NE(id_, invalid_id, "GPU with an invalid id");
    AIWC_CHECK_NE(node_, invalid_id, "GPU ", id_, " with an invalid node");
}

Node::Node(NodeId id, const NodeSpec &spec, GpuId first_gpu_id,
           CapacitySummary &summary)
    : id_(id), spec_(&spec), free_cpu_slots_(spec.cpuSlots()),
      free_ram_gb_(spec.ram_gb), free_gpus_(spec.gpus), summary_(&summary)
{
    AIWC_CHECK_GT(spec.cpuSlots(), 0, "node ", id, " has no CPU slots");
    AIWC_CHECK_GE(spec.gpus, 0, "node ", id, " has negative GPUs");
    gpus_.reserve(static_cast<std::size_t>(spec.gpus));
    for (int g = 0; g < spec.gpus; ++g)
        gpus_.emplace_back(first_gpu_id + static_cast<GpuId>(g), id,
                           spec.gpu);
    summary_->free_gpus += free_gpus_;
    ++summary_->idle_nodes;
}

void
Node::noteIdle(bool was_idle)
{
    if (idle() != was_idle)
        summary_->idle_nodes += was_idle ? -1 : 1;
}

bool
Node::fitsCpu(int cpu_slots, double ram_gb) const
{
    // Epsilon absorbs floating-point residue from repeated RAM
    // allocate/release cycles; without it a whole-node request of
    // exactly the node's RAM can be rejected forever once free RAM
    // drifts to 383.999... GB.
    return cpu_slots <= free_cpu_slots_ &&
           ram_gb <= free_ram_gb_ + ram_epsilon;
}

void
Node::allocateCpu(int cpu_slots, double ram_gb)
{
    AIWC_CHECK_GE(cpu_slots, 0, "negative slot request on node ", id_);
    AIWC_CHECK_GE(ram_gb, 0.0, "negative RAM request on node ", id_);
    AIWC_CHECK(fitsCpu(cpu_slots, ram_gb),
               "over-allocating node ", id_, ": ", cpu_slots, " slots / ",
               ram_gb, " GB requested, ", free_cpu_slots_, " / ",
               free_ram_gb_, " free");
    const bool was_idle = idle();
    free_cpu_slots_ -= cpu_slots;
    free_ram_gb_ = std::max(free_ram_gb_ - ram_gb, 0.0);
    ++resident_jobs_;
    noteIdle(was_idle);
}

void
Node::releaseCpu(int cpu_slots, double ram_gb)
{
    AIWC_CHECK_GE(cpu_slots, 0, "negative slot release on node ", id_);
    AIWC_CHECK_GE(ram_gb, 0.0, "negative RAM release on node ", id_);
    AIWC_CHECK_GT(resident_jobs_, 0,
                  "releasing CPU on node ", id_, " with no resident jobs");
    AIWC_CHECK_LE(free_cpu_slots_ + cpu_slots, spec_->cpuSlots(),
                  "CPU slot over-release on node ", id_, ": ", cpu_slots,
                  " returned with ", free_cpu_slots_, " of ",
                  spec_->cpuSlots(), " already free");
    AIWC_CHECK_LE(free_ram_gb_ + ram_gb, spec_->ram_gb + ram_epsilon,
                  "RAM over-release on node ", id_, ": ", ram_gb,
                  " GB returned with ", free_ram_gb_, " GB already free");
    const bool was_idle = idle();
    free_cpu_slots_ += cpu_slots;
    free_ram_gb_ += ram_gb;
    --resident_jobs_;
    // Snap an empty node back to its exact capacity so accumulated
    // rounding never leaks into future whole-node placements.
    if (resident_jobs_ == 0) {
        free_cpu_slots_ = spec_->cpuSlots();
        free_ram_gb_ = spec_->ram_gb;
    }
    noteIdle(was_idle);
}

std::vector<GpuId>
Node::allocateGpus(JobId job, int count)
{
    AIWC_CHECK_GE(count, 0, "negative GPU request on node ", id_);
    AIWC_CHECK_LE(count, freeGpus(), "not enough free GPUs on node ", id_,
                  " for job ", job);
    std::vector<GpuId> out;
    out.reserve(static_cast<std::size_t>(count));
    for (auto &g : gpus_) {
        if (static_cast<int>(out.size()) == count)
            break;
        if (!g.busy()) {
            g.assign(job);
            out.push_back(g.id());
            --free_gpus_;
            --summary_->free_gpus;
        }
    }
    return out;
}

void
Node::releaseGpu(GpuId gpu)
{
    for (auto &g : gpus_) {
        if (g.id() == gpu) {
            g.release();
            ++free_gpus_;
            ++summary_->free_gpus;
            return;
        }
    }
    AIWC_CHECK(false, "GPU ", gpu, " does not live on node ", id_);
}

void
Node::auditInvariants() const
{
    AIWC_CHECK_GE(free_cpu_slots_, 0, "negative free slots on node ", id_);
    AIWC_CHECK_LE(free_cpu_slots_, spec_->cpuSlots(),
                  "leaked CPU slots on node ", id_);
    AIWC_CHECK_GE(free_ram_gb_, 0.0, "negative free RAM on node ", id_);
    AIWC_CHECK_LE(free_ram_gb_, spec_->ram_gb + ram_epsilon,
                  "leaked RAM on node ", id_);
    AIWC_CHECK_GE(resident_jobs_, 0, "job count underflow on node ", id_);
    AIWC_CHECK_EQ(gpus_.size(), static_cast<std::size_t>(spec_->gpus),
                  "GPU count drift on node ", id_);
    int idle_gpus = 0;
    for (const auto &g : gpus_) {
        g.auditInvariants();
        AIWC_CHECK_EQ(g.node(), id_, "GPU ", g.id(),
                      " claims a foreign node");
        if (g.busy())
            AIWC_CHECK_NE(g.job(), invalid_id,
                          "busy GPU ", g.id(), " with no owner");
        else
            ++idle_gpus;
    }
    AIWC_CHECK_EQ(free_gpus_, idle_gpus,
                  "cached free-GPU count drifted on node ", id_);
    if (resident_jobs_ == 0) {
        // Every GPU job also holds CPU slots here (commit order), so an
        // empty node must be fully idle and snapped to rated capacity.
        AIWC_CHECK_EQ(free_cpu_slots_, spec_->cpuSlots(),
                      "empty node ", id_, " not at full CPU capacity");
        AIWC_CHECK_EQ(freeGpus(), static_cast<int>(gpus_.size()),
                      "empty node ", id_, " holds busy GPUs");
    }
}

Cluster::Cluster(const ClusterSpec &spec) : spec_(spec)
{
    AIWC_CHECK_GT(spec.nodes, 0, "cluster needs at least one node");
    nodes_.reserve(static_cast<std::size_t>(spec.nodes));
    GpuId next_gpu = 0;
    for (int n = 0; n < spec.nodes; ++n) {
        nodes_.emplace_back(static_cast<NodeId>(n), spec_.node, next_gpu,
                            summary_);
        next_gpu += static_cast<GpuId>(spec.node.gpus);
    }
}

Node &
Cluster::node(NodeId id)
{
    AIWC_CHECK_LT(id, nodes_.size(), "node id out of range");
    return nodes_[id];
}

const Node &
Cluster::node(NodeId id) const
{
    AIWC_CHECK_LT(id, nodes_.size(), "node id out of range");
    return nodes_[id];
}

int
Cluster::freeCpuSlots() const
{
    int n = 0;
    for (const auto &node : nodes_)
        n += node.freeCpuSlots();
    return n;
}

NodeId
Cluster::nodeOfGpu(GpuId gpu) const
{
    const auto per_node = static_cast<GpuId>(spec_.node.gpus);
    AIWC_CHECK_GT(per_node, 0u, "cluster nodes carry no GPUs");
    const auto node = gpu / per_node;
    AIWC_CHECK_LT(node, nodes_.size(), "GPU id out of range: ", gpu);
    return node;
}

const Gpu &
Cluster::gpu(GpuId id) const
{
    const Node &owner = nodes_[nodeOfGpu(id)];
    for (const auto &g : owner.gpus())
        if (g.id() == id)
            return g;
    AIWC_CHECK(false, "GPU ", id, " missing from its mapped node ",
               owner.id());
    // Unreachable: the AIWC_CHECK above never returns; this only silences
    // the compiler's missing-return diagnostic.
    // aiwc-lint: allow(contract-abort) -- unreachable missing-return stub
    std::abort();
}

void
Cluster::auditInvariants() const
{
    GpuId next_gpu = 0;
    int free_gpus = 0, idle_nodes = 0;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        const Node &node = nodes_[n];
        node.auditInvariants();
        free_gpus += node.freeGpus();
        idle_nodes += node.freeCpuSlots() == spec_.node.cpuSlots();
        AIWC_CHECK_EQ(node.id(), static_cast<NodeId>(n),
                      "node id drift at index ", n);
        for (const auto &g : node.gpus()) {
            AIWC_CHECK_EQ(g.id(), next_gpu,
                          "non-sequential GPU id on node ", node.id());
            AIWC_CHECK_EQ(nodeOfGpu(g.id()), node.id(),
                          "GPU ", g.id(), " maps to the wrong node");
            ++next_gpu;
        }
    }
    AIWC_CHECK_EQ(freeGpus(), free_gpus,
                  "cluster free-GPU summary out of step with its nodes");
    AIWC_CHECK_EQ(idleNodes(), idle_nodes,
                  "cluster idle-node summary out of step with its nodes");
    AIWC_CHECK_LE(freeGpus(), spec_.totalGpus(),
                  "more free GPUs than the cluster owns");
    AIWC_CHECK_LE(freeCpuSlots(), spec_.nodes * spec_.node.cpuSlots(),
                  "more free CPU slots than the cluster owns");
}

} // namespace aiwc::sim
