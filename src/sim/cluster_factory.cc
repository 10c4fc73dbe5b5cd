#include "aiwc/sim/cluster_factory.hh"

#include "aiwc/base/logging.hh"
#include "aiwc/common/table.hh"

namespace aiwc::sim
{

namespace
{

/**
 * The machine-class catalog. Row 0 is the Table-I Supercloud node;
 * row 1 is the cheaper "economy" exploration tier (same chassis,
 * slower 16 GB GPUs) the multi-tier recommendation would add.
 */
constexpr MachineSpec machine_spec_table[] = {
    // name, nodes, sockets, cores/socket, HT, RAM GB, GPUs,
    //     GPU model, GPU GB, TDP W, idle W, rel speed,
    //     SSD TB, HDD TB, shared SSD TB
    {"Supercloud", 224, 2, 20, 2, 384.0, 2,
     "Nvidia Volta V100", 32.0, 300.0, 25.0, 1.0,
     1.0, 3.8, 873.0},
    {"EconomySupercloud", 224, 2, 20, 2, 384.0, 2,
     "EconomyTier", 16.0, 160.0, 15.0, 0.5,
     1.0, 3.8, 873.0},
};

} // namespace

const MachineSpec *
machineSpecTable()
{
    return machine_spec_table;
}

std::size_t
machineSpecCount()
{
    return sizeof(machine_spec_table) / sizeof(machine_spec_table[0]);
}

ClusterSpec
clusterSpecFrom(const MachineSpec &machine)
{
    ClusterSpec spec;
    spec.name = machine.name;
    spec.nodes = machine.nodes;
    spec.node.sockets = machine.sockets;
    spec.node.cores_per_socket = machine.cores_per_socket;
    spec.node.hyperthreads_per_core = machine.hyperthreads_per_core;
    spec.node.ram_gb = machine.ram_gb;
    spec.node.gpus = machine.gpus;
    spec.node.gpu.model = machine.gpu_model;
    spec.node.gpu.memory_gb = machine.gpu_memory_gb;
    spec.node.gpu.tdp_watts = machine.gpu_tdp_watts;
    spec.node.gpu.idle_watts = machine.gpu_idle_watts;
    spec.node.gpu.relative_speed = machine.gpu_relative_speed;
    spec.node.local_ssd_tb = machine.local_ssd_tb;
    spec.node.local_hdd_tb = machine.local_hdd_tb;
    spec.shared_ssd_tb = machine.shared_ssd_tb;
    return spec;
}

ClusterSpec
supercloudSpec()
{
    return clusterSpecFrom(machine_spec_table[0]);
}

ClusterSpec
miniSupercloudSpec(int nodes)
{
    AIWC_ASSERT(nodes >= 1, "mini cluster needs at least one node");
    ClusterSpec spec = supercloudSpec();
    spec.name = "MiniSupercloud";
    spec.nodes = nodes;
    return spec;
}

void
printSpec(const ClusterSpec &spec, std::ostream &os)
{
    TextTable table({"Specification", "Value"});
    table.addRow({"System", spec.name});
    table.addRow({"Number of Nodes", formatNumber(spec.nodes, 0)});
    table.addRow({"Number of CPU Cores",
                  formatNumber(spec.totalCpuCores(), 0)});
    table.addRow({"CPU sockets x cores x HT",
                  formatNumber(spec.node.sockets, 0) + " x " +
                      formatNumber(spec.node.cores_per_socket, 0) + " x " +
                      formatNumber(spec.node.hyperthreads_per_core, 0)});
    table.addRow({"Node RAM", formatNumber(spec.node.ram_gb, 0) + " GB"});
    table.addRow({"Number of GPUs", formatNumber(spec.totalGpus(), 0)});
    table.addRow({"GPUs per Node", formatNumber(spec.node.gpus, 0)});
    table.addRow({"GPU Type", spec.node.gpu.model});
    table.addRow({"GPU RAM",
                  formatNumber(spec.node.gpu.memory_gb, 0) + " GB"});
    table.addRow({"GPU TDP",
                  formatNumber(spec.node.gpu.tdp_watts, 0) + " W"});
    table.addRow({"Local Storage",
                  formatNumber(spec.node.local_ssd_tb, 1) + " TB SSD & " +
                      formatNumber(spec.node.local_hdd_tb, 1) + " TB HDD"});
    table.addRow({"Shared Storage",
                  formatNumber(spec.shared_ssd_tb, 0) + " TB SSD"});
    table.addRow({"Interconnect", spec.interconnect});
    table.addRow({"Network", spec.network});
    table.print(os);
}

} // namespace aiwc::sim
