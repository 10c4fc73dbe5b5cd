#include "aiwc/scenario/machine.hh"

#include "aiwc/base/check.hh"

namespace aiwc::scenario
{

double
Machine::utilization() const
{
    if (!awake() || cls_->cores <= 0)
        return 0.0;
    return static_cast<double>(busy_cores_) /
           static_cast<double>(cls_->cores);
}

bool
Machine::canFit(const Demand &d) const
{
    return busy_cores_ + d.cores <= cls_->cores &&
           used_memory_gb_ + d.memory_gb <= cls_->memory_gb &&
           busy_gpus_ + d.gpus <= cls_->gpus;
}

double
Machine::watts() const
{
    if (s_state_ > 0)
        return cls_->s_state_watts[static_cast<std::size_t>(s_state_)];
    // Awake (or waking, which burns the awake base): chassis base +
    // per-core draws + per-GPU draws.
    double w = cls_->s_state_watts[0];
    w += busy_core_watts_;
    w += static_cast<double>(idleCores()) * cls_->idleCoreWatts();
    w += static_cast<double>(busy_gpus_) * cls_->gpu_tdp_watts;
    w += static_cast<double>(cls_->gpus - busy_gpus_) * cls_->gpu_idle_watts;
    return w;
}

void
Machine::advanceTo(Seconds t)
{
    if (t <= last_advance_)
        return;
    joules_ += watts() * (t - last_advance_);
    last_advance_ = t;
}

Seconds
Machine::wake(Seconds t)
{
    if (awake())
        return t;
    if (waking_)
        return wake_ready_at_;
    advanceTo(t);
    const Seconds latency = cls_->wakeSeconds(s_state_);
    s_state_ = 0;  // transition draws the awake base
    waking_ = true;
    wake_ready_at_ = t + latency;
    return wake_ready_at_;
}

void
Machine::completeWake(Seconds t)
{
    if (!waking_)
        return;
    advanceTo(t);
    waking_ = false;
}

void
Machine::sleep(int s, Seconds t)
{
    if (!awake() || busy_cores_ > 0 || busy_gpus_ > 0)
        return;
    const int deepest = cls_->deepestSleep();
    if (s < 1 || deepest < 1)
        return;
    advanceTo(t);
    s_state_ = s > deepest ? deepest : s;
}

void
Machine::place(const Demand &d, Seconds t)
{
    AIWC_DCHECK(awake(), "place on a sleeping machine");
    AIWC_DCHECK(canFit(d), "place past capacity");
    advanceTo(t);
    busy_cores_ += d.cores;
    used_memory_gb_ += d.memory_gb;
    busy_gpus_ += d.gpus;
    busy_core_watts_ +=
        static_cast<double>(d.cores) * cls_->busyCoreWatts(d.p_state);
}

void
Machine::remove(const Demand &d, Seconds t)
{
    advanceTo(t);
    busy_cores_ -= d.cores;
    used_memory_gb_ -= d.memory_gb;
    busy_gpus_ -= d.gpus;
    busy_core_watts_ -=
        static_cast<double>(d.cores) * cls_->busyCoreWatts(d.p_state);
    AIWC_DCHECK(busy_cores_ >= 0 && busy_gpus_ >= 0,
                "resource release underflow");
    if (busy_cores_ == 0)
        busy_core_watts_ = 0.0;  // absorb float dust at idle
    if (used_memory_gb_ < 0.0)
        used_memory_gb_ = 0.0;
}

Fleet
Fleet::homogeneous(const MachineClassSpec &cls, int count)
{
    Fleet fleet;
    for (int i = 0; i < count; ++i)
        fleet.machines.emplace_back(&cls, static_cast<std::uint32_t>(i));
    return fleet;
}

double
Fleet::totalJoules() const
{
    double total = 0.0;
    for (const Machine &m : machines)
        total += m.joules();
    return total;
}

void
Fleet::advanceAll(Seconds t)
{
    for (Machine &m : machines)
        m.advanceTo(t);
}

} // namespace aiwc::scenario
