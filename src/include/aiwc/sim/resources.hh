/**
 * @file
 * The cluster resource model: GPUs, nodes, and the cluster itself,
 * mirroring the Supercloud topology of Table I (224 dual-socket Xeon
 * 6248 nodes, 2 V100-32GB GPUs each, 384 GB node RAM).
 *
 * Allocation state lives here; policy lives in aiwc::sched. A node
 * hands out CPU hyperthread slots, RAM gigabytes, and whole GPUs; the
 * Supercloud never co-locates jobs on the same GPU (Sec. III), so GPUs
 * are exclusive.
 */

#pragma once

#include <string>
#include <vector>

#include "aiwc/common/types.hh"

namespace aiwc::sim
{

/** Static description of one GPU model. */
struct GpuSpec
{
    std::string model = "V100";
    double memory_gb = 32.0;
    double tdp_watts = 300.0;
    double idle_watts = 25.0;
    /**
     * Relative throughput against the V100 baseline — used by the
     * multi-tier planner when mixing GPU generations (Sec. VIII).
     */
    double relative_speed = 1.0;
};

/** Static description of one node. */
struct NodeSpec
{
    int sockets = 2;
    int cores_per_socket = 20;
    int hyperthreads_per_core = 2;
    double ram_gb = 384.0;
    int gpus = 2;
    GpuSpec gpu;
    double local_ssd_tb = 1.0;
    double local_hdd_tb = 3.8;

    /** Schedulable CPU slots (hyperthreads). */
    int cpuSlots() const
    {
        return sockets * cores_per_socket * hyperthreads_per_core;
    }
};

/** Static description of the whole system (Table I). */
struct ClusterSpec
{
    std::string name = "Supercloud";
    int nodes = 224;
    NodeSpec node;
    double shared_ssd_tb = 873.0;
    std::string interconnect = "100 Gb/s Omnipath two-layer partial fat-tree";
    std::string network = "25 Gb/s Ethernet CX-4";

    int totalGpus() const { return nodes * node.gpus; }
    int totalCpuCores() const
    {
        return nodes * node.sockets * node.cores_per_socket;
    }
};

/** Runtime allocation state of one GPU. */
class Gpu
{
  public:
    Gpu(GpuId id, NodeId node, const GpuSpec &spec)
        : id_(id), node_(node), spec_(&spec) {}

    GpuId id() const { return id_; }
    NodeId node() const { return node_; }
    const GpuSpec &spec() const { return *spec_; }

    bool busy() const { return job_ != invalid_id; }
    JobId job() const { return job_; }

    /** Assign to a job; the GPU must be free and the job id valid. */
    void assign(JobId job);

    /** Release back to the free pool; the GPU must be busy. */
    void release();

    /** Contract-check this GPU's internal consistency. */
    void auditInvariants() const;

  private:
    GpuId id_;
    NodeId node_;
    const GpuSpec *spec_;
    JobId job_ = invalid_id;
};

/**
 * Cluster-wide free capacity, kept current by every node that reports
 * into it. An idle node has every CPU slot free.
 */
struct CapacitySummary
{
    int free_gpus = 0;
    int idle_nodes = 0;
};

/** Runtime allocation state of one node. */
class Node
{
  public:
    /**
     * @param summary the node adds its capacity to it now and reports
     *        every later change of its free GPUs and idleness; it must
     *        outlive the node.
     */
    Node(NodeId id, const NodeSpec &spec, GpuId first_gpu_id,
         CapacitySummary &summary);

    NodeId id() const { return id_; }
    const NodeSpec &spec() const { return *spec_; }

    int freeCpuSlots() const { return free_cpu_slots_; }
    double freeRamGb() const { return free_ram_gb_; }
    int freeGpus() const { return free_gpus_; }

    const std::vector<Gpu> &gpus() const { return gpus_; }
    /**
     * Mutable GPUs. Assigning or releasing one directly bypasses the
     * cached free-GPU count; auditInvariants() reports the drift.
     */
    std::vector<Gpu> &gpus() { return gpus_; }

    /** True when the node can host this CPU/RAM request right now. */
    bool fitsCpu(int cpu_slots, double ram_gb) const;

    /** Claim CPU slots and RAM for a job; must fit. */
    void allocateCpu(int cpu_slots, double ram_gb);

    /** Return CPU slots and RAM. */
    void releaseCpu(int cpu_slots, double ram_gb);

    /** Claim `count` free GPUs for a job; returns their global ids. */
    std::vector<GpuId> allocateGpus(JobId job, int count);

    /** Release one of this node's GPUs by global id. */
    void releaseGpu(GpuId gpu);

    /** Number of distinct jobs currently holding CPU slots here. */
    int residentJobs() const { return resident_jobs_; }

    /**
     * Deep audit of this node's conservation invariants: free slots and
     * RAM within [0, capacity], GPU count and ownership ids intact, the
     * cached free-GPU count equal to a recount, and an empty node (no
     * resident jobs) holding no busy GPUs at exactly its rated
     * capacity. Any violation fails an AIWC_CHECK.
     */
    void auditInvariants() const;

  private:
    bool idle() const { return free_cpu_slots_ == spec_->cpuSlots(); }

    /** Report a change of idleness since @p was_idle to the summary. */
    void noteIdle(bool was_idle);

    NodeId id_;
    const NodeSpec *spec_;
    int free_cpu_slots_;
    double free_ram_gb_;
    std::vector<Gpu> gpus_;
    int free_gpus_;
    int resident_jobs_ = 0;
    CapacitySummary *summary_;
};

/**
 * The cluster: owns all nodes and exposes capacity queries used by the
 * scheduler's placement pass.
 */
class Cluster
{
  public:
    explicit Cluster(const ClusterSpec &spec);

    // Nodes point into the spec and the summary, so a cluster stays put.
    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    const ClusterSpec &spec() const { return spec_; }

    std::size_t numNodes() const { return nodes_.size(); }
    Node &node(NodeId id);
    const Node &node(NodeId id) const;
    std::vector<Node> &nodes() { return nodes_; }
    const std::vector<Node> &nodes() const { return nodes_; }

    /** Total free GPUs across the cluster; O(1). */
    int freeGpus() const { return summary_.free_gpus; }

    /** Nodes with every CPU slot free; O(1). */
    int idleNodes() const { return summary_.idle_nodes; }

    /** Total free CPU slots across the cluster. */
    int freeCpuSlots() const;

    /** Node owning a global GPU id. */
    NodeId nodeOfGpu(GpuId gpu) const;

    /** The GPU with a global id; the id must be in range. */
    const Gpu &gpu(GpuId id) const;

    /**
     * Deep audit of cluster-wide conservation: every node's own
     * invariants, the global GPU id <-> node mapping, and agreement
     * between per-node free counts and the cluster aggregates,
     * including the free-GPU and idle-node summary.
     */
    void auditInvariants() const;

  private:
    ClusterSpec spec_;
    CapacitySummary summary_;
    std::vector<Node> nodes_;
};

} // namespace aiwc::sim

