/**
 * @file
 * The parameterized system bus model.
 *
 * Two organizations are supported, matching the paper's section 4.1:
 *
 *  - multiplexed: address and data share one set of wires.  A write of
 *    S bytes occupies 1 + ceil(S/width) bus cycles; a read request
 *    occupies its address cycle and the response data returns later.
 *
 *  - split: separate address and data paths.  A write occupies one
 *    address cycle and ceil(S/width) data cycles starting in the same
 *    cycle.
 *
 * Both organizations are fully pipelined with overlapped arbitration;
 * back-to-back transactions from one master are allowed unless a
 * turnaround cycle is configured.  Optional selective flow control
 * (ackDelay) forces the address cycles of *strongly ordered*
 * transactions of one master to be at least ackDelay bus cycles
 * apart, modelling the wait for a positive acknowledgment.
 *
 * All transaction sizes must be powers of two between 1 byte and the
 * maximum burst size, naturally aligned.
 */

#ifndef CSB_BUS_SYSTEM_BUS_HH
#define CSB_BUS_SYSTEM_BUS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bus_monitor.hh"
#include "bus_target.hh"
#include "snoop.hh"
#include "sim/clocked.hh"
#include "sim/fault.hh"
#include "sim/inline_function.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "transaction.hh"

namespace csb::bus {

/** Bus organization. */
enum class BusKind : std::uint8_t { Multiplexed, Split };

/** Static bus configuration. */
struct BusParams
{
    BusKind kind = BusKind::Multiplexed;
    /** Data path width in bytes (8 for multiplexed, 16/32 for split). */
    unsigned widthBytes = 8;
    /** CPU ticks per bus cycle (the processor:bus frequency ratio). */
    unsigned ratio = 6;
    /** Idle bus cycles inserted after every transaction / data tenure. */
    unsigned turnaround = 0;
    /**
     * Fixed-delay acknowledgment: minimum spacing, in bus cycles,
     * between the address cycles of consecutive strongly ordered
     * transactions of the same master.  0 disables flow control.
     */
    unsigned ackDelay = 0;
    /** Largest legal burst (one cache line). */
    unsigned maxBurstBytes = 64;
    /**
     * Run the full error/retry protocol: a transaction to an unmapped
     * address completes with BusStatus::Error delivered to the master
     * instead of aborting the process, targets are expected to NACK
     * via accept(), and strongly-ordered masters serialize their
     * streams against retry hazards (see ordersMustSerialize()).
     */
    bool errorResponses = false;

    /** Throws FatalError when inconsistent. */
    void validate() const;
};

/*
 * Master callbacks hold their closures inline (sim::InlineFunction),
 * each type sized to the largest closure the tree passes as one:
 * presenting a request allocates nothing beyond its payload, and a
 * larger closure fails to compile.
 */

/**
 * Invoked when a write transaction has fully transferred (or failed).
 * @p payload is the transaction's data handed back to the master.  It
 * is intact unless @p status is Ok (the target may have taken it), so
 * a master re-presents a NACKed write from it without a copy of its
 * own.
 */
using WriteCallback =
    sim::InlineFunction<void(Tick completion_tick, BusStatus status,
                             std::vector<std::uint8_t> &payload),
                        24>;
/**
 * Invoked when read data has been returned over the bus.  On Nack or
 * Error the data vector is empty and the master should retry (Nack)
 * or give up (Error).
 */
using ReadCallback =
    sim::InlineFunction<void(Tick completion_tick, BusStatus status,
                             const std::vector<std::uint8_t> &data),
                        56>;
/** Invoked when the request's address cycle is driven (txn started). */
using StartCallback = sim::InlineFunction<void(Tick start_tick), 16>;

/**
 * The system bus.  Masters present at most one request at a time via
 * requestWrite()/requestRead(); the bus starts at most one new
 * transaction per bus cycle, picking ready masters round-robin.
 */
class SystemBus : public sim::Clocked, public sim::stats::StatGroup
{
  public:
    /**
     * @param io_base the monitor counts writes at or above it as I/O
     *        writes (BusMonitor::ioWrites)
     */
    SystemBus(sim::Simulator &simulator, const BusParams &params,
              std::string name = "bus",
              sim::stats::StatGroup *stat_parent = nullptr,
              Addr io_base = 0);

    ~SystemBus() override;

    const BusParams &params() const { return params_; }

    /** Register a master port.  @return its id. */
    MasterId registerMaster(const std::string &name);

    /** Map [base, base+size) to @p target.  Ranges must not overlap. */
    void addTarget(Addr base, Addr size, BusTarget *target);

    /**
     * Present a write request.
     * @param snapshot_payload see BusTransaction::snapshotPayload
     * @return false when this master already has a pending request.
     */
    bool requestWrite(MasterId master, Addr addr,
                      std::vector<std::uint8_t> data, bool strongly_ordered,
                      WriteCallback on_complete,
                      StartCallback on_start = {},
                      bool snapshot_payload = false);

    /** Present a read request.  @see requestWrite */
    bool requestRead(MasterId master, Addr addr, unsigned size,
                     bool strongly_ordered, ReadCallback on_complete,
                     StartCallback on_start = {});

    /** @return true when the master may present a new request. */
    bool masterIdle(MasterId master) const;

    /**
     * Register a cached master for snooping.  Every registered snooper
     * except the requester is probed on each snoopBroadcast().
     */
    void registerSnooper(Snooper *snooper);

    /**
     * Broadcast a snoop probe on behalf of @p requester to every other
     * registered snooper and aggregate the replies.  Atomic-bus
     * snooping: tag state settles synchronously within the call;
     * latency is charged by the caller (upgrade / cache-to-cache
     * knobs, demand write-backs travel as ordinary bus writes).
     */
    SnoopSummary snoopBroadcast(const Snooper *requester, Addr line_addr,
                                SnoopKind kind);

    /**
     * @return true when a request presented now by @p master would
     * start at the next bus edge.  Masters with combining buffers use
     * this to keep an entry open (still coalescing) until the moment
     * the bus can actually take it -- "combining is limited by the
     * time that an entry spends waiting in the buffer" (section 4.1).
     * Competition from other masters in the same cycle may still
     * delay the start by a cycle; that is inherent to arbitration.
     */
    bool wouldAcceptAtNextEdge(MasterId master, bool strongly_ordered,
                               bool is_write) const;

    /**
     * A lower bound on the first tick at which wouldAcceptAtNextEdge()
     * can return true for these arguments.  Everything it reads only
     * moves later as the bus runs, so a master that finds the bus
     * busy may sleep until this tick.
     */
    Tick earliestAcceptTick(MasterId master, bool strongly_ordered,
                            bool is_write) const;

    /** @return true when nothing is pending or in flight. */
    bool quiescent() const;

    /** Current bus cycle index. */
    std::uint64_t curBusCycle() const;

    /** Data cycles needed for @p size bytes. */
    unsigned dataCycles(unsigned size) const;

    BusMonitor &monitor() { return monitor_; }
    const BusMonitor &monitor() const { return monitor_; }

    /**
     * Attach the system's fault injector (null to detach).  The bus
     * consults the BusWriteNack / BusReadNack / BusError sites.
     */
    void setFaultInjector(sim::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** The attached fault injector, or null. */
    const sim::FaultInjector *faultInjector() const { return injector_; }

    /**
     * True when attached masters must serialize their strongly-ordered
     * streams: a NACK is only discovered at completion, so with NACKs
     * possible (an injector with bus faults, or errorResponses mode
     * where targets may refuse) a master may not pipeline a younger
     * ordered transaction behind one whose status is still unknown
     * (the retry would land after its younger neighbour).
     */
    bool ordersMustSerialize() const
    {
        return params_.errorResponses ||
               (injector_ && injector_->plan().busFaultsEnabled());
    }

    void tick() override;

    void settle() override;

    void debugDump(std::ostream &os) const override;

    /**
     * Serialize timing state (free cycles, arbitration
     * pointer, per-master ordering history) and the monitor totals.
     * @pre quiescent() -- no request may be pending or in flight.
     */
    void checkpointSave(sim::CheckpointWriter &cw) const;

    /** Restore state written by checkpointSave().  @pre quiescent() */
    void checkpointRestore(sim::CheckpointReader &cr);

    // Statistics (public for the harness; gem5 naming convention says
    // stats are part of the visible interface).
    sim::stats::Scalar numWrites;
    sim::stats::Scalar numReads;
    sim::stats::Scalar bytesWritten;
    sim::stats::Scalar bytesRead;
    sim::stats::Scalar busyDataCycles;
    sim::stats::Scalar orderingStallCycles;
    /** Idle bus cycles inserted as turnaround after tenures. */
    sim::stats::Scalar turnaroundCycles;
    /** Bus cycles from request presentation to transfer completion. */
    sim::stats::Distribution txnLatencyCycles;
    /** Transactions completed with BusStatus::Nack. */
    sim::stats::Scalar numNacks;
    /** Transactions completed with BusStatus::Error. */
    sim::stats::Scalar numErrors;
    /** Snoop probes broadcast (one per requesting miss/upgrade). */
    sim::stats::Scalar snoopProbes;
    /** Probed caches that held a copy, summed over broadcasts. */
    sim::stats::Scalar snoopHits;
    /** Broadcasts no other cache had the line for. */
    sim::stats::Scalar snoopMisses;
    /** Broadcasts answered by an owner cache-to-cache. */
    sim::stats::Scalar snoopInterventions;
    /** Copies invalidated by broadcast probes. */
    sim::stats::Scalar snoopInvalidations;
    /** Dirty copies demand-written-back by broadcast probes. */
    sim::stats::Scalar snoopWritebacks;
    /** busyDataCycles over elapsed bus cycles (computed on demand). */
    sim::stats::Formula utilization;

  private:
    struct Request
    {
        BusTransaction txn;
        WriteCallback onWrite;
        ReadCallback onRead;
        StartCallback onStart;
        Tick requestTick = 0;
        /** Address matched no target; completes with Error. */
        bool unmapped = false;
    };

    struct PendingResponse
    {
        BusTransaction txn;
        ReadCallback onRead;
        Tick readyTick = 0;
        std::uint64_t reqAddrCycle = 0;
        Tick requestTick = 0;
    };

    struct TargetRange
    {
        Addr base;
        Addr size;
        BusTarget *target;
    };

    /** Validate size/alignment; panics on protocol violations. */
    void checkTransaction(const BusTransaction &txn) const;

    /** @return the mapped target, or null when the range is unmapped. */
    BusTarget *findTarget(Addr addr, unsigned size) const;

    /** Abort with a diagnostic naming the issuing master. */
    [[noreturn]] void unmappedAbort(const BusTransaction &txn) const;

    /** Count + trace a failed completion. */
    void noteFailure(const BusTransaction &txn, BusStatus status,
                     Tick when);

    /** @return true when master @p m may start an ordered txn at @p c. */
    bool orderingAllows(const Request &req, std::uint64_t c) const;

    bool tryStartResponse(std::uint64_t c);
    bool tryStartRequest(std::uint64_t c, bool data_path_taken);

    /**
     * After a cycle @p c that started nothing: the first tick at which
     * a pending response or request can start (maxTick: none can
     * until new input arrives).
     */
    Tick nextStartTick(std::uint64_t c) const;

    /**
     * Count the ordering stalls of the cycles skipped while asleep, up
     * to but excluding tick @p until.
     */
    void accrueStalls(Tick until);
    void startWrite(Request &req, std::uint64_t c);
    void startRead(Request &req, std::uint64_t c);

    sim::Simulator &sim_;
    BusParams params_;

    std::vector<std::string> masterNames_;
    std::vector<std::optional<Request>> slots_;
    std::vector<std::int64_t> lastOrderedAddrCycle_;
    std::vector<TargetRange> targets_;
    std::deque<PendingResponse> responses_;

    /** Earliest cycle a new address may be driven. */
    std::uint64_t addrNextFree_ = 0;
    /** Earliest cycle a new data tenure may start (split bus only). */
    std::uint64_t dataNextFree_ = 0;
    std::size_t lastGranted_ = 0;
    /** Transactions started but not yet completed. */
    unsigned inFlight_ = 0;
    /**
     * Ordering stalls counted in the last evaluated cycle.  Nothing
     * changes while the bus sleeps, so each skipped cycle repeats
     * them.
     */
    unsigned stallsPerCycle_ = 0;
    /** Optional fault injector (not owned). */
    sim::FaultInjector *injector_ = nullptr;
    /** Coherent cached masters, probed on every broadcast (not owned). */
    std::vector<Snooper *> snoopers_;

    BusMonitor monitor_;
};

} // namespace csb::bus

#endif // CSB_BUS_SYSTEM_BUS_HH
