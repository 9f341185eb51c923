#include "context_scheduler.hh"

namespace csb::cpu {

ContextScheduler::ContextScheduler(sim::Simulator &simulator, Core &core,
                                   Tick quantum, std::string name,
                                   sim::stats::StatGroup *stat_parent)
    : sim::Clocked(name, sim::ClockDomain(1), /*eval_order=*/5),
      sim::stats::StatGroup(name, stat_parent),
      preemptions(this, "preemptions", "forced context switches"),
      sim_(simulator), core_(core), quantum_(quantum)
{
    csb_assert(quantum > 0, "scheduler quantum must be positive");
    simulator.registerClocked(this);
    core_.setContextWaiter(this);
}

ContextScheduler::~ContextScheduler()
{
    core_.setContextWaiter(nullptr);
}

void
ContextScheduler::addProcess(const isa::Program *program, ProcId pid)
{
    csb_assert(!started_, "cannot add processes after start()");
    Process proc;
    proc.program = program;
    proc.state.pid = pid;
    processes_.push_back(proc);
}

void
ContextScheduler::start()
{
    csb_assert(!processes_.empty(), "no processes to schedule");
    started_ = true;
    current_ = 0;
    sliceStart_ = sim_.curTick();
    core_.loadProgram(processes_[0].program, processes_[0].state.pid);
    ungate();
}

bool
ContextScheduler::allFinished() const
{
    if (!started_)
        return false;
    for (std::size_t i = 0; i < processes_.size(); ++i) {
        if (static_cast<int>(i) == current_)
            continue;
        if (!processes_[i].finished)
            return false;
    }
    return core_.halted();
}

const ArchState &
ContextScheduler::finalState(std::size_t index) const
{
    csb_assert(index < processes_.size(), "bad process index");
    if (static_cast<int>(index) == current_)
        return core_.archState();
    return processes_[index].state;
}

int
ContextScheduler::nextRunnable(int from) const
{
    int n = static_cast<int>(processes_.size());
    for (int step = 1; step <= n; ++step) {
        int idx = (from + step) % n;
        if (idx != current_ && !processes_[idx].finished)
            return idx;
    }
    return -1;
}

void
ContextScheduler::switchTo(int index)
{
    int previous = current_;
    current_ = index;
    sliceStart_ = sim_.curTick();
    core_.requestContextSwitch(
        processes_[index].program, processes_[index].state,
        [this, previous](const ArchState &saved) {
            processes_[previous].state = saved;
            processes_[previous].finished = saved.halted;
        });
    preemptions += 1;
}

void
ContextScheduler::tick()
{
    // The scheduler sleeps until its quantum ends; the core wakes it
    // when a HALT commits, a program loads or a switch completes.
    Tick now = sim_.curTick();
    if (idleHalted_) {
        sliceStart_ = now - 1;
        idleHalted_ = false;
    }
    if (!started_ || core_.switchPending()) {
        gate();
        return;
    }

    bool quantum_over = now - sliceStart_ >= quantum_;
    bool current_halted = core_.halted();
    if (!quantum_over && !current_halted) {
        sleepUntil(sliceStart_ + quantum_);
        return;
    }

    int next = nextRunnable(current_);
    if (next < 0) {
        // Nothing else runnable; extend the current slice.
        sliceStart_ = now;
        if (current_halted) {
            idleHalted_ = true;
            gate();
        } else {
            sleepUntil(now + quantum_);
        }
        return;
    }
    switchTo(next);
    gate();
}

} // namespace csb::cpu
