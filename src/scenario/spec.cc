#include "aiwc/scenario/spec.hh"

#include <algorithm>

namespace aiwc::scenario
{

namespace
{

/** Clamp helper for the normalize() functions. */
double
clampd(double v, double lo, double hi)
{
    if (!(v >= lo))  // also catches NaN
        return lo;
    return v > hi ? hi : v;
}

int
clampi(int v, int lo, int hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

/** Clamp every entry of a wattage/latency table into [lo, hi]. */
void
clampTable(std::vector<double> &table, double lo, double hi)
{
    for (double &v : table)
        v = clampd(v, lo, hi);
}

} // namespace

int
MachineClassSpec::deepestSleep() const
{
    return static_cast<int>(s_state_watts.size()) - 1;
}

double
MachineClassSpec::idleCoreWatts() const
{
    return c_state_watts.empty() ? 0.0 : c_state_watts.back();
}

double
MachineClassSpec::busyCoreWatts(int p) const
{
    if (p_state_watts.empty())
        return 0.0;
    const int last = static_cast<int>(p_state_watts.size()) - 1;
    return p_state_watts[static_cast<std::size_t>(clampi(p, 0, last))];
}

double
MachineClassSpec::mipsAt(int p) const
{
    if (mips.empty())
        return 1000.0;
    const int last = static_cast<int>(mips.size()) - 1;
    const double m = mips[static_cast<std::size_t>(clampi(p, 0, last))];
    return m > 0.0 ? m : 1.0;
}

double
MachineClassSpec::wakeSeconds(int s) const
{
    if (s_wake_seconds.empty() || s <= 0)
        return 0.0;
    const int last = static_cast<int>(s_wake_seconds.size()) - 1;
    const double w =
        s_wake_seconds[static_cast<std::size_t>(clampi(s, 0, last))];
    return w > 0.0 ? w : 0.0;
}

void
normalize(MachineClassSpec &m)
{
    if (m.name.empty())
        m.name = "machine-class";
    m.count = clampi(m.count, 0, 100000);
    m.cores = clampi(m.cores, 1, 4096);
    m.memory_gb = clampd(m.memory_gb, 0.25, 1.0e6);
    m.gpus = clampi(m.gpus, 0, 64);
    m.gpu_memory_gb = clampd(m.gpu_memory_gb, 1.0, 1.0e4);
    m.gpu_tdp_watts = clampd(m.gpu_tdp_watts, 1.0, 1.0e4);
    m.gpu_idle_watts = clampd(m.gpu_idle_watts, 0.0, m.gpu_tdp_watts);
    m.gpu_relative_speed = clampd(m.gpu_relative_speed, 0.01, 1.0);

    // Power tables: never empty, bounded, and latencies sized to the
    // S-state table so wakeSeconds() indexing is always valid.
    if (m.s_state_watts.empty())
        m.s_state_watts.push_back(100.0);
    if (m.p_state_watts.empty())
        m.p_state_watts.push_back(10.0);
    if (m.c_state_watts.empty())
        m.c_state_watts.push_back(0.0);
    if (m.mips.empty())
        m.mips.push_back(1000.0);
    constexpr std::size_t max_states = 16;
    auto truncate = [](std::vector<double> &t) {
        if (t.size() > max_states)
            t.resize(max_states);
    };
    truncate(m.s_state_watts);
    truncate(m.p_state_watts);
    truncate(m.c_state_watts);
    truncate(m.mips);
    truncate(m.s_wake_seconds);
    clampTable(m.s_state_watts, 0.0, 1.0e6);
    clampTable(m.p_state_watts, 0.0, 1.0e6);
    clampTable(m.c_state_watts, 0.0, 1.0e6);
    clampTable(m.mips, 1.0, 1.0e9);
    clampTable(m.s_wake_seconds, 0.0, 1.0e6);
    m.s_wake_seconds.resize(m.s_state_watts.size(), 0.0);
    m.s_wake_seconds[0] = 0.0;  // S0 is awake; nothing to wake from
}

MachineClassSpec
fromMachineSpec(const sim::MachineSpec &m)
{
    MachineClassSpec cls;
    cls.name = m.name;
    cls.count = m.nodes;
    cls.cpu = CpuIsa::X86;
    cls.cores = m.sockets * m.cores_per_socket * m.hyperthreads_per_core;
    cls.memory_gb = m.ram_gb;
    cls.gpus = m.gpus;
    cls.gpu_memory_gb = m.gpu_memory_gb;
    cls.gpu_tdp_watts = m.gpu_tdp_watts;
    cls.gpu_idle_watts = m.gpu_idle_watts;
    cls.gpu_relative_speed = m.gpu_relative_speed;
    normalize(cls);
    return cls;
}

} // namespace aiwc::scenario
