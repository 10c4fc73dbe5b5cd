#include "aiwc/scenario/engine.hh"

#include <algorithm>
#include <array>

#include "aiwc/base/check.hh"
#include "aiwc/obs/metrics.hh"
#include "aiwc/sim/event_queue.hh"
#include "aiwc/sketch/kll.hh"

namespace aiwc::scenario
{

namespace
{

// The documented reference model; see the engine.hh file comment.
constexpr Seconds migration_cost = 30.0;     //!< pause per migration
constexpr Seconds sla_grace = 5.0;           //!< flat allowance per task
constexpr double latency_sla_factor = 1.5;   //!< service / expected bound
constexpr double batch_sla_factor = 3.0;
constexpr double reference_mips = 1000.0;
constexpr double isa_mismatch_penalty = 1.25;

/** Engine-level observability; totals are order-independent sums. */
struct EngineMetrics
{
    obs::Counter &cells;
    obs::Counter &tasks;
    obs::Counter &migrations;
    obs::Counter &wakes;
    obs::Counter &sla_violations;

    static EngineMetrics &
    get()
    {
        auto &reg = obs::MetricsRegistry::global();
        static EngineMetrics m{
            reg.counter("aiwc.scenario.cells"),
            reg.counter("aiwc.scenario.tasks"),
            reg.counter("aiwc.scenario.migrations"),
            reg.counter("aiwc.scenario.wakes"),
            reg.counter("aiwc.scenario.sla_violations"),
        };
        return m;
    }
};

/**
 * Event kinds, in same-timestamp processing order; each kind is its
 * event's rank in the shared sim::EventQueue.
 */
enum : int
{
    ev_completion = 0,
    ev_wake_place = 1,
    ev_arrival = 2,
    ev_tick = 3,
};

/** The task an event refers to; ticks leave both fields 0. */
struct TaskRef
{
    std::uint32_t tidx = 0;     //!< task index
    std::uint32_t gen = 0;      //!< completion generation (migrations)
};

/** Per-task runtime bookkeeping. */
struct Run
{
    enum class State : std::uint8_t
    {
        Pending,   //!< queued, no machine yet
        Waking,    //!< reserved on a machine that is powering up
        Running,
        Done,
        Dropped,
    };

    State state = State::Pending;
    int machine = -1;
    int p_state = 0;
    double remaining = 1.0;     //!< work units left at run_start
    Seconds placed_at = 0.0;    //!< resources charged since
    Seconds run_start = 0.0;    //!< work (re)starts here
    Seconds run_end = 0.0;
    std::uint32_t gen = 0;      //!< invalidates stale completions
    bool started = false;       //!< wait already recorded
};

class CellSimulator
{
  public:
    CellSimulator(Fleet fleet, const std::vector<Task> &tasks,
                  const SchedulingPolicy &policy)
        : fleet_(std::move(fleet)), tasks_(tasks), policy_(policy),
          runs_(tasks.size()),
          wait_sketches_{sketch::KllSketch(128, 1), sketch::KllSketch(128, 2),
                         sketch::KllSketch(128, 3)}
    {
    }

    CellStats
    run()
    {
        // Policies that sleep idle machines start the fleet asleep.
        for (Machine &m : fleet_.machines) {
            const int s = policy_.idleSleepState(m);
            if (s > 0)
                m.sleep(s, 0.0);
        }
        for (std::uint32_t i = 0; i < tasks_.size(); ++i)
            events_.push(tasks_[i].arrival, ev_arrival, {i, 0});
        const Seconds tick = consolidationPeriod();
        if (tick > 0.0)
            events_.push(tick, ev_tick, {});

        while (!events_.empty()) {
            const auto ev = events_.pop();
            switch (ev.rank) {
              case ev_arrival: arrive(ev.payload.tidx); break;
              case ev_completion: complete(ev.time, ev.payload); break;
              case ev_wake_place: wakePlace(ev.time, ev.payload.tidx); break;
              case ev_tick: consolidate(ev.time); break;
            }
        }
        finishStats();
        return stats_;
    }

  private:
    Seconds
    consolidationPeriod() const
    {
        const Seconds p = policy_.consolidationInterval();
        // Clamp so a misbehaving policy cannot wedge the event loop.
        return p > 0.0 ? (p < 1.0 ? 1.0 : p) : 0.0;
    }

    /** Work-unit duration of `task` on `m` at P-state p. */
    Seconds
    durationOn(const Machine &m, const Task &task, int p) const
    {
        const MachineClassSpec &cls = m.cls();
        double dur;
        if (task.gpus > 0) {
            dur = task.expected_runtime / cls.gpu_relative_speed;
        } else {
            dur = task.expected_runtime * reference_mips /
                  cls.mipsAt(p);
            if (cls.cpu != task.preferred_isa)
                dur *= isa_mismatch_penalty;
        }
        return dur > 1.0e-6 ? dur : 1.0e-6;
    }

    bool
    fitsAnyClass(const Task &task) const
    {
        for (const Machine &m : fleet_.machines) {
            const MachineClassSpec &cls = m.cls();
            if (task.cores <= cls.cores && task.memory_gb <= cls.memory_gb &&
                task.gpus <= cls.gpus)
                return true;
        }
        return false;
    }

    void
    arrive(std::uint32_t tidx)
    {
        const Task &task = tasks_[tidx];
        ++stats_.tasks;
        note(task.arrival);
        if (!fitsAnyClass(task)) {
            runs_[tidx].state = Run::State::Dropped;
            drop(task);
            return;
        }
        pending_.push_back(tidx);
        drain(task.arrival);
    }

    /** Try to place every pending task, FIFO order, at time `now`. */
    void
    drain(Seconds now)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            const std::uint32_t tidx = pending_[i];
            if (!tryPlace(tidx, now))
                pending_[kept++] = tidx;
        }
        pending_.resize(kept);
    }

    bool
    tryPlace(std::uint32_t tidx, Seconds now)
    {
        const Task &task = tasks_[tidx];
        const Placement pick = policy_.place(fleet_, task);
        if (pick.machine < 0 ||
            static_cast<std::size_t>(pick.machine) >= fleet_.machines.size())
            return false;
        Machine &m = fleet_.machines[static_cast<std::size_t>(pick.machine)];
        Run &run = runs_[tidx];
        run.machine = pick.machine;
        run.p_state = pick.p_state;
        if (m.awake()) {
            if (!m.canFit(demandFor(task, pick.p_state)))
                return false;  // tolerate a bad custom policy
            start(tidx, m, now);
            return true;
        }
        if (m.waking())
            return false;  // already reserved by another task
        const Seconds ready = m.wake(now);
        ++stats_.wakes;
        run.state = Run::State::Waking;
        events_.push(ready, ev_wake_place, {tidx, 0});
        return true;
    }

    /** Charge resources and schedule completion at time `now`. */
    void
    start(std::uint32_t tidx, Machine &m, Seconds now)
    {
        const Task &task = tasks_[tidx];
        Run &run = runs_[tidx];
        m.place(demandFor(task, run.p_state), now);
        run.state = Run::State::Running;
        run.placed_at = now;
        run.run_start = now;
        run.run_end = now + run.remaining * durationOn(m, task, run.p_state);
        if (!run.started) {
            run.started = true;
            const Seconds wait = now - task.arrival;
            auto &w = wait_sketches_[static_cast<std::size_t>(task.sla)];
            w.add(wait >= 0.0 ? wait : 0.0);
            ++stats_.waits[static_cast<std::size_t>(task.sla)].tasks;
        }
        ++run.gen;
        events_.push(run.run_end, ev_completion, {tidx, run.gen});
    }

    void
    wakePlace(Seconds now, std::uint32_t tidx)
    {
        Run &run = runs_[tidx];
        if (run.state != Run::State::Waking)
            return;
        Machine &m = fleet_.machines[static_cast<std::size_t>(run.machine)];
        m.completeWake(now);
        note(now);
        if (!m.canFit(demandFor(tasks_[tidx], run.p_state))) {
            run.state = Run::State::Pending;  // defensive; re-queue
            pending_.push_back(tidx);
            return;
        }
        start(tidx, m, now);
        drain(now);
    }

    void
    complete(Seconds now, TaskRef ref)
    {
        Run &run = runs_[ref.tidx];
        if (run.state != Run::State::Running || ref.gen != run.gen)
            return;  // stale completion from before a migration
        const Task &task = tasks_[ref.tidx];
        Machine &m = fleet_.machines[static_cast<std::size_t>(run.machine)];
        m.remove(demandFor(task, run.p_state), now);
        busy_core_seconds_ +=
            static_cast<double>(task.cores) * (now - run.placed_at);
        run.state = Run::State::Done;
        run.remaining = 0.0;
        ++stats_.finished;
        note(now);

        const Seconds service = now - task.arrival;
        const double factor =
            task.sla == SlaClass::LatencySensitive
                ? latency_sla_factor
                : batch_sla_factor;
        if (task.sla != SlaClass::Scavenger &&
            service > factor * task.expected_runtime + sla_grace)
            ++stats_.sla_violations;

        drain(now);
        maybeSleep(m, now);
    }

    /** Policy-directed sleep for a machine that went fully idle. */
    void
    maybeSleep(Machine &m, Seconds now)
    {
        if (!m.awake() || m.busyCores() > 0 || m.busyGpus() > 0)
            return;
        if (!pending_.empty())
            return;  // capacity may be wanted momentarily
        const int s = policy_.idleSleepState(m);
        if (s > 0)
            m.sleep(s, now);
    }

    void
    consolidate(Seconds now)
    {
        std::vector<RunningView> running;
        for (std::uint32_t i = 0; i < runs_.size(); ++i) {
            const Run &run = runs_[i];
            if (run.state != Run::State::Running)
                continue;
            RunningView rv;
            rv.task_id = i;
            rv.machine = run.machine;
            rv.demand = demandFor(tasks_[i], run.p_state);
            rv.sla = tasks_[i].sla;
            const Seconds span = run.run_end - run.run_start;
            double done = 1.0;
            if (span > 0.0 && now > run.run_start)
                done = (now - run.run_start) / span;
            else if (now <= run.run_start)
                done = 0.0;
            const double rem = run.remaining * (1.0 - done);
            rv.remaining_fraction = rem < 0.0 ? 0.0 : rem;
            running.push_back(rv);
        }
        if (!running.empty()) {
            for (const Migration &mig :
                 policy_.consolidate(fleet_, running))
                applyMigration(mig, now);
        }
        // Keep ticking while there is (or will be) work in flight.
        const bool active = !running.empty() || !pending_.empty() ||
                            !events_.empty();
        if (active)
            events_.push(now + consolidationPeriod(), ev_tick, {});
    }

    void
    applyMigration(const Migration &mig, Seconds now)
    {
        if (mig.task_id >= runs_.size() || mig.to_machine < 0 ||
            static_cast<std::size_t>(mig.to_machine) >=
                fleet_.machines.size())
            return;
        Run &run = runs_[mig.task_id];
        if (run.state != Run::State::Running ||
            run.machine == mig.to_machine || now < run.run_start)
            return;
        const Task &task = tasks_[mig.task_id];
        Machine &dst =
            fleet_.machines[static_cast<std::size_t>(mig.to_machine)];
        const Demand demand = demandFor(task, run.p_state);
        if (!dst.awake() || !dst.canFit(demand))
            return;
        Machine &src = fleet_.machines[static_cast<std::size_t>(run.machine)];

        // Retire the source segment.
        const Seconds span = run.run_end - run.run_start;
        const double done = span > 0.0 ? (now - run.run_start) / span : 1.0;
        run.remaining *= (1.0 - (done < 1.0 ? done : 1.0));
        if (run.remaining < 0.0)
            run.remaining = 0.0;
        src.remove(demand, now);
        busy_core_seconds_ +=
            static_cast<double>(task.cores) * (now - run.placed_at);

        // Start the destination segment after the migration pause.
        dst.place(demand, now);
        run.machine = mig.to_machine;
        run.placed_at = now;
        run.run_start = now + migration_cost;
        run.run_end = run.run_start +
                      run.remaining * durationOn(dst, task, run.p_state);
        ++run.gen;
        ++stats_.migrations;
        events_.push(run.run_end, ev_completion, {mig.task_id, run.gen});
        maybeSleep(src, now);
    }

    /** A task the cell will never run: non-scavenger drops violate. */
    void
    drop(const Task &task)
    {
        ++stats_.dropped;
        if (task.sla != SlaClass::Scavenger)
            ++stats_.sla_violations;
    }

    /** Track the productive makespan (arrivals, starts, completions). */
    void
    note(Seconds t)
    {
        if (t > stats_.makespan)
            stats_.makespan = t;
    }

    void
    finishStats()
    {
        // Anything still pending with an empty event queue means no
        // machine could ever host it (the arrive() drop check should
        // have caught it; stay total regardless).
        for (std::uint32_t tidx : pending_)
            drop(tasks_[tidx]);
        pending_.clear();

        fleet_.advanceAll(stats_.makespan);
        stats_.joules = fleet_.totalJoules();
        const std::uint64_t settled = stats_.finished + stats_.dropped;
        stats_.violation_rate =
            settled > 0 ? static_cast<double>(stats_.sla_violations) /
                              static_cast<double>(settled)
                        : 0.0;
        double fleet_cores = 0.0;
        for (const Machine &m : fleet_.machines)
            fleet_cores += static_cast<double>(m.cls().cores);
        stats_.mean_utilization =
            fleet_cores > 0.0 && stats_.makespan > 0.0
                ? busy_core_seconds_ / (fleet_cores * stats_.makespan)
                : 0.0;
        for (int c = 0; c < num_sla_classes; ++c) {
            const auto &sk = wait_sketches_[static_cast<std::size_t>(c)];
            WaitQuantiles &w = stats_.waits[static_cast<std::size_t>(c)];
            if (sk.count() > 0) {
                const auto q = sk.quantiles(std::array{0.50, 0.95, 0.99});
                w.p50 = q[0];
                w.p95 = q[1];
                w.p99 = q[2];
            }
        }

        EngineMetrics &metrics = EngineMetrics::get();
        metrics.cells.add(1);
        metrics.tasks.add(stats_.tasks);
        metrics.migrations.add(stats_.migrations);
        metrics.wakes.add(stats_.wakes);
        metrics.sla_violations.add(stats_.sla_violations);
    }

    Fleet fleet_;
    const std::vector<Task> &tasks_;
    const SchedulingPolicy &policy_;

    sim::EventQueue<TaskRef> events_;
    std::vector<Run> runs_;
    std::vector<std::uint32_t> pending_;
    std::array<sketch::KllSketch, num_sla_classes> wait_sketches_;
    double busy_core_seconds_ = 0.0;
    CellStats stats_;
};

} // namespace

CellStats
simulateCell(const MachineClassSpec &cls, int count,
             const std::vector<Task> &tasks, const SchedulingPolicy &policy)
{
    MachineClassSpec local = cls;
    normalize(local);
    const int n = count > 0 ? count : 1;
    return CellSimulator(Fleet::homogeneous(local, n), tasks, policy).run();
}

CellStats
simulateFleet(const ScenarioSpec &spec, const std::vector<Task> &tasks,
              const SchedulingPolicy &policy)
{
    ScenarioSpec local = spec;
    for (MachineClassSpec &m : local.machines)
        normalize(m);
    if (local.totalMachines() == 0) {
        // A machine-less scenario still yields a total, empty result.
        CellStats stats;
        stats.tasks = tasks.size();
        stats.dropped = tasks.size();
        for (const Task &t : tasks)
            if (t.sla != SlaClass::Scavenger)
                ++stats.sla_violations;
        stats.violation_rate =
            tasks.empty() ? 0.0
                          : static_cast<double>(stats.sla_violations) /
                                static_cast<double>(tasks.size());
        return stats;
    }
    return CellSimulator(Fleet::fromSpec(local), tasks, policy).run();
}

} // namespace aiwc::scenario
