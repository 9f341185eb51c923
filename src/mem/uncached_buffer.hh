/**
 * @file
 * The uncached buffer: a FIFO between the core's retire stage and the
 * system bus that handles ordinary uncached loads and stores.
 *
 * In its simplest form it queues each access and issues one bus
 * transaction per access.  When a combining block size is configured
 * (the R10000-style "uncached accelerated" mode) a store may coalesce
 * into the youngest entry if its address falls into the same block
 * and it would not bypass an earlier load; coalescing into the
 * youngest entry only can never reorder accesses.  Combining is
 * limited by the time an entry spends waiting: once the entry's first
 * transaction is presented to the system interface, the entry locks
 * and its valid bytes are split into naturally aligned power-of-two
 * transactions (see decompose.hh).
 *
 * All transactions issued by this buffer are strongly ordered.
 */

#ifndef CSB_MEM_UNCACHED_BUFFER_HH
#define CSB_MEM_UNCACHED_BUFFER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bus/retry.hh"
#include "bus/system_bus.hh"
#include "decompose.hh"
#include "sim/clocked.hh"
#include "sim/fixed_ring.hh"
#include "sim/inline_function.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace csb::mem {

/** How stores may coalesce into an open entry. */
enum class CombinePolicy : std::uint8_t
{
    /**
     * Any store into the open entry's block merges (this model's
     * default, the best-case hardware buffer).
     */
    Block,
    /**
     * R10000-style: a store merges only when it extends the entry at
     * exactly the next sequential address, and an entry issues as a
     * single burst only when the entire block was combined -- partial
     * blocks issue one single-beat transaction per store (paper
     * section 6: "This design is limited to strictly sequential
     * access patterns").
     */
    SequentialOnly,
};

/** Configuration of the uncached buffer. */
struct UncachedBufferParams
{
    /** Queue depth in entries. */
    unsigned entries = 8;
    /**
     * Combining block size in bytes (16/32/64/128); 0 disables
     * combining entirely so every store issues its own transaction.
     */
    unsigned combineBytes = 0;
    /** Coalescing rule for the open entry. */
    CombinePolicy policy = CombinePolicy::Block;
    /** Backoff schedule for transactions NACKed on the bus. */
    bus::RetryPolicy retry;

    void validate() const;
};

/** Callback delivering uncached load data (held inline). */
using UncachedLoadCallback =
    sim::InlineFunction<void(Tick completion_tick,
                             const std::vector<std::uint8_t> &data),
                        24>;

/**
 * FIFO buffer for uncached loads and stores with optional combining.
 */
class UncachedBuffer : public sim::Clocked, public sim::stats::StatGroup
{
  public:
    UncachedBuffer(sim::Simulator &simulator, bus::SystemBus &bus,
                   const UncachedBufferParams &params,
                   std::string name = "ubuf",
                   sim::stats::StatGroup *stat_parent = nullptr);

    /** @return true when a store can be pushed this cycle. */
    bool canAcceptStore(Addr addr, unsigned size) const;

    /** @return true when a load can be pushed this cycle. */
    bool canAcceptLoad() const;

    /**
     * Push an uncached store (called at retire).
     * @pre canAcceptStore(addr, size)
     */
    void pushStore(Addr addr, unsigned size, const void *data);

    /**
     * Push an uncached load (called at retire).  The callback fires
     * when the bus read response completes.
     * @pre canAcceptLoad()
     */
    void pushLoad(Addr addr, unsigned size, UncachedLoadCallback done);

    /**
     * @return true when no access is buffered or in flight -- the
     * condition a MEMBAR (and therefore a lock release) waits for.
     */
    bool empty() const;

    /**
     * Wake @p waiter whenever an entry leaves or an in-flight access
     * completes: the only moments canAcceptStore(), canAcceptLoad()
     * and empty() can turn true.  Null detaches.
     */
    void setWaiter(sim::Clocked *waiter) { waiter_ = waiter; }

    /** Number of queued entries (tests / debugging). */
    std::size_t depth() const { return entries_.size(); }

    void tick() override;

    void debugDump(std::ostream &os) const override;

    const UncachedBufferParams &params() const { return params_; }

    sim::stats::Scalar storesPushed;
    sim::stats::Scalar loadsPushed;
    sim::stats::Scalar storesCoalesced;
    sim::stats::Scalar entriesCreated;
    sim::stats::Scalar txnsIssued;
    /** Transactions NACKed on the bus. */
    sim::stats::Scalar busNacks;
    /** NACKed transactions reissued after backoff. */
    sim::stats::Scalar busRetries;
    sim::stats::Distribution entryOccupancy;

  private:
    enum class Kind : std::uint8_t { Store, Load };

    /**
     * One buffer slot.  Everything is inline, so the entry ring never
     * allocates after construction.
     */
    struct Entry
    {
        Kind kind = Kind::Store;
        /** Block-aligned base (stores) or access address (loads). */
        Addr addr = 0;
        unsigned size = 0; // loads only
        ValidMask valid;
        std::array<std::uint8_t, maxBlockBytes> data{};
        /** Locked once the first transaction was presented. */
        bool locked = false;
        /**
         * Locked store issues one transaction per coalesced store
         * (SequentialOnly, partial block) instead of aligned chunks.
         */
        bool perStore = false;
        /** The entry's last transaction has been presented. */
        bool lastPresented = false;
        /** A presented transaction has not started yet. */
        bool presentPending = false;
        /** Offset of the first store; SequentialOnly stores follow it. */
        unsigned firstOffset = 0;
        /** Address one past the last coalesced store (sequential). */
        Addr lastStoreEnd = 0;
        /** Number of stores coalesced into this entry. */
        unsigned storeCount = 0;
        /**
         * SequentialOnly only: sizes of the coalesced stores in
         * arrival order.  Those stores extend the entry contiguously
         * from firstOffset, so at most maxBlockBytes of them fit.
         */
        std::array<std::uint8_t, maxBlockBytes> storeSizes{};
        /** Locked store: block offset where the next transaction starts. */
        unsigned cursor = 0;
        /** Locked per-store entry: index of the next store to issue. */
        unsigned nextStore = 0;
        UncachedLoadCallback loadDone;
    };

    /** A NACKed transaction waiting out its backoff. */
    struct PendingRetry
    {
        bool isWrite = true;
        Addr addr = 0;
        unsigned size = 0;
        std::vector<std::uint8_t> data; // writes only
        UncachedLoadCallback loadDone;  // loads only
        unsigned attempt = 0;
        Tick earliest = 0;
    };

    /** Block size used for new store entries. */
    unsigned blockBytes() const;
    unsigned maxTxnBytes() const;

    /** @return true when a store may merge into the open tail entry. */
    bool canCoalesceInto(const Entry &tail, Addr addr,
                         unsigned size) const;

    /**
     * The next transaction of the locked store entry @p entry, or a
     * zero-size chunk when all of it has been presented.
     */
    Chunk nextChunk(const Entry &entry) const;

    /** Wake the waiter, if any. */
    void
    wakeWaiter()
    {
        if (waiter_)
            waiter_->ungate();
    }

    /** Wake-ups owed to an in-flight access completing. */
    void noteCompletion(bus::BusStatus status);

    void presentHeadStore();
    void presentHeadLoad();
    void issueRetry(PendingRetry redo);

    /**
     * Shared write-completion handling (first issue and retries).  A
     * NACKed write takes its retry data from @p payload, the bytes
     * the bus handed back.
     */
    void handleWriteStatus(Addr addr, std::vector<std::uint8_t> &payload,
                           unsigned attempt, Tick when,
                           bus::BusStatus status);
    /** Shared read-completion handling (first issue and retries). */
    void handleReadStatus(Addr addr, unsigned size,
                          UncachedLoadCallback &done, unsigned attempt,
                          Tick when, bus::BusStatus status,
                          const std::vector<std::uint8_t> &data);

    sim::Simulator &sim_;
    bus::SystemBus &bus_;
    UncachedBufferParams params_;
    MasterId masterId_;
    /** params_.entries slots, allocated once. */
    sim::FixedRing<Entry> entries_;
    /**
     * NACKed transactions awaiting reissue; serviced strictly before
     * entries_ so the port's access order is preserved.
     */
    std::deque<PendingRetry> retries_;
    /** A reissued retry has been presented but not started. */
    bool retryPresentPending_ = false;
    /** Write transactions started but not completed. */
    unsigned inflightStores_ = 0;
    /** Read transactions started but not completed. */
    unsigned inflightLoads_ = 0;
    /** Woken when space or a drain appears (not owned). */
    sim::Clocked *waiter_ = nullptr;
};

} // namespace csb::mem

#endif // CSB_MEM_UNCACHED_BUFFER_HH
