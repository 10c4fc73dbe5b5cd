/**
 * @file
 * Canned cluster configurations: the Supercloud system of Table I, a
 * scaled-down variant for fast tests, and the multi-tier fleet the
 * paper recommends in Sec. VIII.
 */

#pragma once

#include <cstddef>
#include <ostream>

#include "aiwc/sim/resources.hh"

namespace aiwc::sim
{

/**
 * One row of the machine-class catalog: every constant needed to build
 * a homogeneous ClusterSpec, hoisted out of code so the Table-I system
 * is just the first entry and new machine classes are data, not code.
 * Plain `const char *` + arithmetic fields keep the table constexpr.
 */
struct MachineSpec
{
    const char *name;
    int nodes;
    int sockets;
    int cores_per_socket;
    int hyperthreads_per_core;
    double ram_gb;
    int gpus;
    const char *gpu_model;
    double gpu_memory_gb;
    double gpu_tdp_watts;
    double gpu_idle_watts;
    double gpu_relative_speed;
    double local_ssd_tb;
    double local_hdd_tb;
    double shared_ssd_tb;
};

/**
 * The built-in machine-class catalog. Entry 0 is the exact Table-I
 * Supercloud row; later entries are the cheaper tiers the Sec. VIII
 * recommendations reason about.
 */
const MachineSpec *machineSpecTable();

/** Number of rows in machineSpecTable(). */
std::size_t machineSpecCount();

/** Expand one catalog row into a homogeneous ClusterSpec. */
ClusterSpec clusterSpecFrom(const MachineSpec &machine);

/** The exact Table-I Supercloud configuration (catalog row 0). */
ClusterSpec supercloudSpec();

/**
 * A proportionally shrunk Supercloud (same node shape, fewer nodes)
 * for unit tests and quick examples. @param nodes >= 1.
 */
ClusterSpec miniSupercloudSpec(int nodes);

/** Render the spec as the Table-I style spec sheet. */
void printSpec(const ClusterSpec &spec, std::ostream &os);

} // namespace aiwc::sim

