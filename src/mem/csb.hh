/**
 * @file
 * The conditional store buffer (CSB) -- the paper's contribution.
 *
 * A single cache-line-sized, software-controlled combining buffer for
 * the uncached-combining address space (section 3.2):
 *
 *  - A combining store whose (process ID, line address) match the
 *    buffered values merges its data and increments the hit counter.
 *    On a mismatch the buffer is cleared, the counter resets to 1 and
 *    the new data is stored.  Stores may arrive in any order.
 *
 *  - A conditional flush carries the expected hit-counter value.  If
 *    counter, process ID and (optionally) line address all match, the
 *    line is handed to the system interface as ONE burst transaction,
 *    zero-padded to a full line, and the buffer clears; the flush
 *    reports success.  Otherwise the buffer clears, the counter
 *    resets to 0, nothing is issued, and the flush reports failure --
 *    software branches back and retries (optimistic non-blocking
 *    synchronization).
 *
 * The flushed line is delivered to the bus by this object's own
 * master port.  With one line buffer, combining stores that arrive
 * while a flushed line is still waiting to be sent stall the core;
 * the paper's suggested extension of a second line buffer
 * (numLineBuffers = 2) removes that stall.
 */

#ifndef CSB_MEM_CSB_HH
#define CSB_MEM_CSB_HH

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bus/retry.hh"
#include "bus/system_bus.hh"
#include "decompose.hh"
#include "sim/clocked.hh"
#include "sim/fault.hh"
#include "sim/fixed_ring.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace csb::mem {

/** Configuration of the conditional store buffer. */
struct CsbParams
{
    /** Data register size in bytes = one cache line. */
    unsigned lineBytes = 64;
    /**
     * Line buffers available for flushed-but-not-yet-sent data.
     * 1 per the base design; 2 enables the pipelining extension.
     */
    unsigned numLineBuffers = 1;
    /**
     * Include the destination line address in the conflict check
     * (detects conflicts between threads of one process, section 3.2).
     */
    bool checkAddress = true;
    /**
     * When set, a successful flush issues only the valid bytes
     * (decomposed into aligned transactions) instead of a zero-padded
     * full line -- the "multiple burst sizes" relaxation the paper
     * mentions for buses that support it.
     */
    bool partialFlush = false;
    /** Backoff schedule for flush writes NACKed on the bus. */
    bus::RetryPolicy retry;
    /**
     * Recovery (docs/FAULTS.md): when a flush chunk exhausts its
     * retry budget, instead of a fatal error the CSB enters DEGRADED
     * mode -- the chunk keeps retrying at the maximum backoff, and
     * while degraded every line is issued as decomposed <= 8-byte
     * aligned stores (the uncached/PIO fallback path) rather than one
     * atomic line burst.  After repromoteAfter consecutive clean
     * completions the CSB re-promotes itself to burst mode.  Off by
     * default: the legacy fatal keeps misconfigured runs loud.
     */
    bool degradedFallback = false;
    /** Consecutive clean completions required to re-promote. */
    unsigned repromoteAfter = 8;

    void validate() const;
};

/**
 * The conditional store buffer.  Stores and flushes are driven by the
 * core's retire stage; the flush-to-bus path runs off this object's
 * clock.
 */
class ConditionalStoreBuffer : public sim::Clocked,
                               public sim::stats::StatGroup
{
  public:
    ConditionalStoreBuffer(sim::Simulator &simulator, bus::SystemBus &bus,
                           const CsbParams &params,
                           std::string name = "csb",
                           sim::stats::StatGroup *stat_parent = nullptr);

    /**
     * @return true when a combining store can be accepted now; false
     * while all line buffers hold flushed data awaiting the bus (the
     * core stalls retire in that case).
     */
    bool canAcceptStore() const { return !outbox_.full(); }

    /**
     * A combining store retires.
     * @pre canAcceptStore()
     */
    void store(ProcId pid, Addr addr, unsigned size, const void *data);

    /**
     * A conditional flush retires.
     * @param expected the hit-counter value the software expects
     * @return true on success (the line was issued atomically)
     */
    bool conditionalFlush(ProcId pid, Addr addr, std::uint64_t expected);

    /** Current hit-counter value (tests / debugging). */
    std::uint64_t hitCounter() const { return hitCounter_; }

    /** Line address currently buffered (valid when hitCounter() > 0). */
    Addr lineAddr() const { return lineAddr_; }

    /** Process ID currently buffered. */
    ProcId pid() const { return pid_; }

    /** @return true while flushed lines wait for the bus. */
    bool flushPending() const { return !outbox_.empty(); }

    /** @return true while NACKed flush chunks await reissue. */
    bool retryPending() const { return !retryQueue_.empty(); }

    /** @return true when nothing is buffered or in flight. */
    bool quiescent() const;

    /**
     * @return true when all flushed lines have completed on the bus
     * (unflushed accumulating stores are allowed -- they have no bus
     * side effects yet).
     */
    bool
    drained() const
    {
        return outbox_.empty() && retryQueue_.empty() && inflight_ == 0;
    }

    void tick() override;

    void settle() override;

    void debugDump(std::ostream &os) const override;

    /**
     * Wake @p waiter whenever a line buffer frees or an in-flight
     * chunk completes: the only moments canAcceptStore() and
     * drained() can turn true.  Null detaches.
     */
    void setWaiter(sim::Clocked *waiter) { waiter_ = waiter; }

    /**
     * Attach the system's fault injector (null detaches).  The only
     * site consulted here is the FaultSite::CsbFlushDrop DEBUG knob:
     * when it fires, a successful flush's line is silently discarded
     * instead of entering the outbox -- an intentional exactly-once
     * violation the litmus harness must detect (docs/LITMUS.md).
     */
    void setFaultInjector(sim::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /**
     * Serialize the accumulating line register (data, valid mask, line
     * address, pid, hit counter).  @pre drained() -- the outbox, retry
     * queue and in-flight counters are empty at a checkpoint boundary,
     * but the accumulator may legitimately hold an unflushed line.
     */
    void checkpointSave(sim::CheckpointWriter &cw) const;

    /** Restore the accumulator written by checkpointSave(). */
    void checkpointRestore(sim::CheckpointReader &cr);

    const CsbParams &params() const { return params_; }

    /** @return true while the PIO-fallback degraded mode is active. */
    bool degraded() const { return degraded_; }

    /** Tick degraded mode was entered (valid while degraded()). */
    Tick degradedSince() const { return degradedSince_; }

    sim::stats::Scalar storesAccepted;
    sim::stats::Scalar conflictsOnStore;
    sim::stats::Scalar flushesAttempted;
    sim::stats::Scalar flushesSucceeded;
    sim::stats::Scalar flushesFailed;
    sim::stats::Scalar linesIssued;
    sim::stats::Scalar storeStallCycles;
    /** Flush writes NACKed on the bus. */
    sim::stats::Scalar busNacks;
    /** NACKed flush writes reissued after backoff. */
    sim::stats::Scalar busRetries;
    /** Retry-budget exhaustions that escalated to degraded mode. */
    sim::stats::Scalar degradedEntries;
    /** Re-promotions to burst mode after clean completions. */
    sim::stats::Scalar repromotions;
    /** Ticks spent in degraded mode (closed episodes only). */
    sim::stats::Scalar degradedTicks;
    /** Valid bytes in the line register at each successful flush. */
    sim::stats::Distribution fillAtFlush;

  private:
    struct OutLine
    {
        Addr addr = 0;
        std::array<std::uint8_t, maxBlockBytes> data{};
        ValidMask valid;
    };

    /** A NACKed flush chunk waiting out its backoff. */
    struct RetryWrite
    {
        Addr addr = 0;
        std::vector<std::uint8_t> data;
        bool lastChunk = true;
        unsigned attempt = 0;
        Tick earliest = 0;
    };

    void clearAccumulator();

    /**
     * Count the store stalls of the edges skipped while asleep, up to
     * but excluding @p until.
     */
    void accrueStalls(Tick until);

    /** Wake the waiter, if any. */
    void
    wakeWaiter()
    {
        if (waiter_)
            waiter_->ungate();
    }

    /** Escalate to degraded mode (idempotent while degraded). */
    void enterDegraded(Tick now);

    /** Re-promote to burst mode after a clean streak. */
    void exitDegraded(Tick now);

    /**
     * Present one write to the bus.  A NACKed chunk is reissued
     * byte-identically from the payload the bus hands back with the
     * completion, so the CSB keeps no copy of its own.
     */
    void issueWrite(Addr addr, std::vector<std::uint8_t> payload,
                    bool last_chunk, unsigned attempt, bool from_outbox);

    sim::Simulator &sim_;
    bus::SystemBus &bus_;
    CsbParams params_;
    MasterId masterId_;
    /** Optional fault injector (not owned); null = no faults. */
    sim::FaultInjector *injector_ = nullptr;

    // Accumulating line register.
    std::array<std::uint8_t, maxBlockBytes> data_{};
    ValidMask valid_;
    Addr lineAddr_ = 0;
    ProcId pid_ = 0;
    std::uint64_t hitCounter_ = 0;
    /** Tick of the first store of the current sequence (trace spans). */
    Tick accumStartTick_ = 0;

    /**
     * Flushed lines waiting for their bus transaction to start: one
     * slot per line buffer, allocated once.
     */
    sim::FixedRing<OutLine> outbox_;
    /**
     * Largest chunk of the head line while it is issued as decomposed
     * chunks (partialFlush or degraded mode); 0 when it is not.
     */
    unsigned headChunkMax_ = 0;
    /** Line offset where the head line's next chunk starts. */
    unsigned headCursor_ = 0;
    /**
     * NACKed chunks awaiting reissue.  Serviced strictly before the
     * outbox so a retried chunk is never overtaken by younger data
     * from the same port.
     */
    std::deque<RetryWrite> retryQueue_;
    bool presentPending_ = false;
    unsigned inflight_ = 0;
    /** Woken when a line buffer frees or a chunk completes. */
    sim::Clocked *waiter_ = nullptr;
    /**
     * The outbox was full at the last evaluated edge, so every edge
     * slept through since then counts a store stall.
     */
    bool stalled_ = false;

    // Degraded-mode (PIO fallback) state, docs/FAULTS.md.
    bool degraded_ = false;
    unsigned cleanStreak_ = 0;
    Tick degradedSince_ = 0;
};

} // namespace csb::mem

#endif // CSB_MEM_CSB_HH
