/**
 * @file
 * Preemptive round-robin scheduling of several processes on one core.
 *
 * Models the paper's competing-process scenario (section 3.2): a
 * process can be preempted between its combining stores and its
 * conditional flush; the competitor's first combining store then
 * clears the CSB, and the original process's flush fails and retries.
 */

#ifndef CSB_CPU_CONTEXT_SCHEDULER_HH
#define CSB_CPU_CONTEXT_SCHEDULER_HH

#include <string>
#include <vector>

#include "core.hh"
#include "sim/clocked.hh"
#include "sim/simulator.hh"

namespace csb::cpu {

/** Round-robin scheduler with a fixed time quantum. */
class ContextScheduler : public sim::Clocked, public sim::stats::StatGroup
{
  public:
    ContextScheduler(sim::Simulator &simulator, Core &core, Tick quantum,
                     std::string name = "sched",
                     sim::stats::StatGroup *stat_parent = nullptr);

    ~ContextScheduler() override;

    /** Register a process.  Call before start(). */
    void addProcess(const isa::Program *program, ProcId pid);

    /** Load the first process onto the core. */
    void start();

    /** @return true when every process has halted. */
    bool allFinished() const;

    /** Number of registered processes. */
    std::size_t numProcesses() const { return processes_.size(); }

    /**
     * Final architectural state of process @p index.  Meaningful once
     * allFinished(); the process still loaded on the core is read
     * from the core's live state.
     */
    const ArchState &finalState(std::size_t index) const;

    void tick() override;

    sim::stats::Scalar preemptions;

  private:
    struct Process
    {
        const isa::Program *program = nullptr;
        ArchState state;
        bool finished = false;
    };

    /** Next runnable process after @p from, or -1. */
    int nextRunnable(int from) const;

    void switchTo(int index);

    sim::Simulator &sim_;
    Core &core_;
    Tick quantum_;
    std::vector<Process> processes_;
    int current_ = -1;
    Tick sliceStart_ = 0;
    bool started_ = false;
    /**
     * Asleep with the current process halted and none other runnable:
     * each skipped tick would have restarted the slice.
     */
    bool idleHalted_ = false;
};

} // namespace csb::cpu

#endif // CSB_CPU_CONTEXT_SCHEDULER_HH
