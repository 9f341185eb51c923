#include "uncached_buffer.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace csb::mem {

void
UncachedBufferParams::validate() const
{
    if (entries == 0)
        csb_fatal("uncached buffer needs at least one entry");
    if (combineBytes != 0 &&
        (!isPowerOf2(combineBytes) || combineBytes < 8 ||
         combineBytes > maxBlockBytes)) {
        csb_fatal("combine block must be a power of two in [8,",
                  maxBlockBytes, "], got ", combineBytes);
    }
}

UncachedBuffer::UncachedBuffer(sim::Simulator &simulator,
                               bus::SystemBus &bus,
                               const UncachedBufferParams &params,
                               std::string name,
                               sim::stats::StatGroup *stat_parent)
    : sim::Clocked(name, sim::ClockDomain(1), /*eval_order=*/-5),
      sim::stats::StatGroup(name, stat_parent),
      storesPushed(this, "storesPushed", "uncached stores accepted"),
      loadsPushed(this, "loadsPushed", "uncached loads accepted"),
      storesCoalesced(this, "storesCoalesced",
                      "stores merged into an existing entry"),
      entriesCreated(this, "entriesCreated", "buffer entries allocated"),
      txnsIssued(this, "txnsIssued", "bus transactions issued"),
      busNacks(this, "busNacks", "transactions NACKed on the bus"),
      busRetries(this, "busRetries",
                 "NACKed transactions reissued after backoff"),
      entryOccupancy(this, "entryOccupancy",
                     "stores combined per entry", 1, 16, 1),
      sim_(simulator), bus_(bus), params_(validated(params)),
      entries_(params_.entries)
{
    masterId_ = bus_.registerMaster(name + ".port");
    simulator.registerClocked(this);
}

unsigned
UncachedBuffer::blockBytes() const
{
    return params_.combineBytes != 0 ? params_.combineBytes : 8;
}

unsigned
UncachedBuffer::maxTxnBytes() const
{
    return std::min<unsigned>(blockBytes(), bus_.params().maxBurstBytes);
}

bool
UncachedBuffer::canCoalesceInto(const Entry &tail, Addr addr,
                                unsigned size) const
{
    if (params_.combineBytes == 0)
        return false;
    if (tail.kind != Kind::Store || tail.locked)
        return false;
    if (roundDown(addr, blockBytes()) != tail.addr)
        return false;
    if (params_.policy == CombinePolicy::SequentialOnly) {
        // R10000-style pattern detection: only the very next address
        // extends the entry.
        (void)size;
        return addr == tail.lastStoreEnd;
    }
    return true;
}

bool
UncachedBuffer::canAcceptStore(Addr addr, unsigned size) const
{
    if (!entries_.empty() &&
        canCoalesceInto(entries_.back(), addr, size)) {
        return true; // coalesces; no new entry needed
    }
    return !entries_.full();
}

bool
UncachedBuffer::canAcceptLoad() const
{
    return !entries_.full();
}

void
UncachedBuffer::pushStore(Addr addr, unsigned size, const void *data)
{
    // Only a new head entry changes what tick() does: it never looks
    // past the head.
    if (entries_.empty())
        ungate();
    csb_assert(size > 0 && size <= 8 && isPowerOf2(size),
               "bad uncached store size ", size);
    csb_assert(addr % size == 0, "misaligned uncached store");
    csb_assert(canAcceptStore(addr, size), "pushStore without capacity");

    Addr block = roundDown(addr, blockBytes());
    unsigned offset = static_cast<unsigned>(addr - block);

    if (!entries_.empty() &&
        canCoalesceInto(entries_.back(), addr, size)) {
        Entry &tail = entries_.back();
        std::memcpy(tail.data.data() + offset, data, size);
        for (unsigned i = 0; i < size; ++i)
            tail.valid.set(offset + i);
        if (params_.policy == CombinePolicy::SequentialOnly)
            tail.storeSizes[tail.storeCount] =
                static_cast<std::uint8_t>(size);
        ++tail.storeCount;
        tail.lastStoreEnd = addr + size;
        ++storesPushed;
        ++storesCoalesced;
        sim::trace::instant("ubuf", sim_.curTick(), [&] {
            return sim::trace::Fields{
                "coalesce",
                {{"addr", sim::trace::hexArg(addr)},
                 {"size", std::to_string(size)},
                 {"block", sim::trace::hexArg(block)},
                 {"stores", std::to_string(tail.storeCount)}}};
        });
        return;
    }

    Entry &entry = entries_.emplace_back();
    entry.kind = Kind::Store;
    entry.addr = block;
    std::memcpy(entry.data.data() + offset, data, size);
    for (unsigned i = 0; i < size; ++i)
        entry.valid.set(offset + i);
    entry.firstOffset = offset;
    entry.storeSizes[0] = static_cast<std::uint8_t>(size);
    entry.storeCount = 1;
    entry.lastStoreEnd = addr + size;
    ++storesPushed;
    ++entriesCreated;
    sim::trace::instant("ubuf", sim_.curTick(), [&] {
        return sim::trace::Fields{
            "new-entry",
            {{"block", sim::trace::hexArg(block)},
             {"depth", std::to_string(entries_.size())}}};
    });
}

void
UncachedBuffer::pushLoad(Addr addr, unsigned size, UncachedLoadCallback done)
{
    if (entries_.empty())
        ungate();
    csb_assert(canAcceptLoad(), "pushLoad without capacity");
    csb_assert(size > 0 && isPowerOf2(size) && addr % size == 0,
               "bad uncached load shape");
    Entry &entry = entries_.emplace_back();
    entry.kind = Kind::Load;
    entry.addr = addr;
    entry.size = size;
    entry.loadDone = std::move(done);
    ++loadsPushed;
    ++entriesCreated;
}

bool
UncachedBuffer::empty() const
{
    return entries_.empty() && retries_.empty() &&
           inflightStores_ == 0 && inflightLoads_ == 0;
}

void
UncachedBuffer::tick()
{
    if (empty()) {
        // Drained and nothing in flight: sleep until the next
        // pushStore()/pushLoad() ungates us.
        gate();
        return;
    }

    // Every wait below sleeps: a new head entry, a transaction's start
    // or a completion it waits for wakes the buffer, and a wait on
    // time or on the bus sleeps until the first tick that can end it.

    // With bus faults possible, the status of an in-flight access must
    // come back before the next one may issue: a NACK discovered at
    // completion would otherwise replay behind a younger neighbour,
    // reordering this port's strongly-ordered stream.
    if ((inflightStores_ != 0 || inflightLoads_ != 0) &&
        bus_.ordersMustSerialize()) {
        gate();
        return;
    }

    // NACKed transactions reissue strictly before queued entries so
    // the port's access order is preserved.
    if (!retries_.empty()) {
        if (retryPresentPending_ || !bus_.masterIdle(masterId_)) {
            gate();
            return;
        }
        PendingRetry &head = retries_.front();
        if (sim_.curTick() < head.earliest) {
            sleepUntil(head.earliest);
            return;
        }
        if (!bus_.wouldAcceptAtNextEdge(masterId_,
                                        /*strongly_ordered=*/true,
                                        head.isWrite)) {
            sleepUntil(bus_.earliestAcceptTick(
                masterId_, /*strongly_ordered=*/true, head.isWrite));
            return;
        }
        PendingRetry redo = std::move(head);
        retries_.pop_front();
        issueRetry(std::move(redo));
        return;
    }

    if (entries_.empty()) {
        gate();
        return;
    }
    Entry &head = entries_.front();
    if (head.presentPending || !bus_.masterIdle(masterId_)) {
        gate();
        return;
    }
    // Keep the head entry open (combining) until the bus can actually
    // take its transaction at the next edge.
    const bool is_store = head.kind == Kind::Store;
    if (!bus_.wouldAcceptAtNextEdge(masterId_, /*strongly_ordered=*/true,
                                    is_store)) {
        sleepUntil(bus_.earliestAcceptTick(
            masterId_, /*strongly_ordered=*/true, is_store));
        return;
    }
    if (head.kind == Kind::Store) {
        presentHeadStore();
    } else {
        presentHeadLoad();
    }
}

Chunk
UncachedBuffer::nextChunk(const Entry &entry) const
{
    if (entry.perStore) {
        if (entry.nextStore == entry.storeCount)
            return Chunk{};
        return Chunk{entry.addr + entry.cursor,
                     entry.storeSizes[entry.nextStore]};
    }
    return nextAlignedChunk(entry.addr, entry.valid, blockBytes(),
                            maxTxnBytes(), entry.cursor);
}

void
UncachedBuffer::presentHeadStore()
{
    Entry &head = entries_.front();
    if (!head.locked) {
        head.locked = true;
        bool full_block =
            head.valid.count() == blockBytes() &&
            blockBytes() <= maxTxnBytes();
        // R10000 semantics: a burst only for a fully combined block;
        // otherwise one single-beat per original store.
        head.perStore = params_.policy == CombinePolicy::SequentialOnly &&
                        !full_block;
        head.cursor = head.perStore ? head.firstOffset : 0;
        entryOccupancy.sample(head.storeCount);
    }

    Chunk chunk = nextChunk(head);
    csb_assert(chunk.size != 0, "locked an empty store entry");
    head.cursor = static_cast<unsigned>(chunk.addr - head.addr) + chunk.size;
    if (head.perStore)
        ++head.nextStore;
    head.lastPresented = nextChunk(head).size == 0;

    const std::uint8_t *bytes = head.data.data() + (chunk.addr - head.addr);
    bool accepted = bus_.requestWrite(
        masterId_, chunk.addr,
        std::vector<std::uint8_t>(bytes, bytes + chunk.size),
        /*strongly_ordered=*/true,
        /*on_complete=*/
        [this, addr = chunk.addr](Tick when, bus::BusStatus status,
                                  std::vector<std::uint8_t> &payload) {
            handleWriteStatus(addr, payload, /*attempt=*/0, when, status);
        },
        /*on_start=*/[this](Tick) {
            ungate();
            Entry &started = entries_.front();
            started.presentPending = false;
            if (started.lastPresented) {
                entries_.pop_front();
                wakeWaiter();
            }
        });
    csb_assert(accepted, "bus refused request despite idle master");

    head.presentPending = true;
    ++inflightStores_;
    ++txnsIssued;
}

void
UncachedBuffer::presentHeadLoad()
{
    Entry &head = entries_.front();
    bool accepted = bus_.requestRead(
        masterId_, head.addr, head.size, /*strongly_ordered=*/true,
        /*on_complete=*/
        [this, addr = head.addr, size = head.size,
         done = std::move(head.loadDone)](
            Tick when, bus::BusStatus status,
            const std::vector<std::uint8_t> &data) mutable {
            handleReadStatus(addr, size, done, /*attempt=*/0, when,
                             status, data);
        },
        /*on_start=*/[this](Tick) {
            ungate();
            entries_.pop_front();
            wakeWaiter();
        });
    csb_assert(accepted, "bus refused request despite idle master");
    head.presentPending = true;
    ++inflightLoads_;
    ++txnsIssued;
}

void
UncachedBuffer::issueRetry(PendingRetry redo)
{
    if (redo.isWrite) {
        bool accepted = bus_.requestWrite(
            masterId_, redo.addr, std::move(redo.data),
            /*strongly_ordered=*/true,
            /*on_complete=*/
            [this, addr = redo.addr,
             attempt = redo.attempt](Tick when, bus::BusStatus status,
                                     std::vector<std::uint8_t> &payload) {
                handleWriteStatus(addr, payload, attempt, when, status);
            },
            /*on_start=*/[this](Tick) {
                ungate();
                retryPresentPending_ = false;
            });
        csb_assert(accepted, "bus refused retry despite idle master");
        ++inflightStores_;
    } else {
        bool accepted = bus_.requestRead(
            masterId_, redo.addr, redo.size, /*strongly_ordered=*/true,
            /*on_complete=*/
            [this, addr = redo.addr, size = redo.size,
             attempt = redo.attempt, done = std::move(redo.loadDone)](
                Tick when, bus::BusStatus status,
                const std::vector<std::uint8_t> &data) mutable {
                handleReadStatus(addr, size, done, attempt, when, status,
                                 data);
            },
            /*on_start=*/[this](Tick) {
                ungate();
                retryPresentPending_ = false;
            });
        csb_assert(accepted, "bus refused retry despite idle master");
        ++inflightLoads_;
    }
    retryPresentPending_ = true;
}

void
UncachedBuffer::noteCompletion(bus::BusStatus status)
{
    // Only a serialized stream or a retry waits on a completion, and
    // the retire stage sees it only when the buffer drains.
    if (status != bus::BusStatus::Ok || bus_.ordersMustSerialize())
        ungate();
    if (status == bus::BusStatus::Ok && empty())
        wakeWaiter();
}

void
UncachedBuffer::handleWriteStatus(Addr addr,
                                  std::vector<std::uint8_t> &payload,
                                  unsigned attempt, Tick when,
                                  bus::BusStatus status)
{
    csb_assert(inflightStores_ > 0, "store completion underflow");
    --inflightStores_;
    noteCompletion(status);
    if (status == bus::BusStatus::Ok)
        return;
    if (status == bus::BusStatus::Error) {
        csb_fatal(sim::Clocked::name(),
                  ": bus error on uncached store at 0x", std::hex, addr);
    }
    busNacks += 1;
    if (attempt + 1 >= params_.retry.maxAttempts) {
        csb_fatal(sim::Clocked::name(), ": store retries exhausted (",
                  params_.retry.maxAttempts, ") at 0x", std::hex, addr);
    }
    busRetries += 1;
    PendingRetry redo;
    redo.isWrite = true;
    redo.addr = addr;
    redo.size = static_cast<unsigned>(payload.size());
    redo.data = std::move(payload);
    redo.attempt = attempt + 1;
    redo.earliest = when + params_.retry.backoffFor(attempt + 1);
    retries_.push_back(std::move(redo));
}

void
UncachedBuffer::handleReadStatus(Addr addr, unsigned size,
                                 UncachedLoadCallback &done,
                                 unsigned attempt, Tick when,
                                 bus::BusStatus status,
                                 const std::vector<std::uint8_t> &data)
{
    csb_assert(inflightLoads_ > 0, "load completion underflow");
    --inflightLoads_;
    noteCompletion(status);
    if (status == bus::BusStatus::Ok) {
        if (done)
            done(when, data);
        return;
    }
    if (status == bus::BusStatus::Error) {
        csb_fatal(sim::Clocked::name(),
                  ": bus error on uncached load at 0x", std::hex, addr);
    }
    busNacks += 1;
    if (attempt + 1 >= params_.retry.maxAttempts) {
        csb_fatal(sim::Clocked::name(), ": load retries exhausted (",
                  params_.retry.maxAttempts, ") at 0x", std::hex, addr);
    }
    busRetries += 1;
    PendingRetry redo;
    redo.isWrite = false;
    redo.addr = addr;
    redo.size = size;
    redo.loadDone = std::move(done);
    redo.attempt = attempt + 1;
    redo.earliest = when + params_.retry.backoffFor(attempt + 1);
    retries_.push_back(std::move(redo));
}

void
UncachedBuffer::debugDump(std::ostream &os) const
{
    os << "entries=" << entries_.size() << " retries=" << retries_.size()
       << " inflightStores=" << inflightStores_
       << " inflightLoads=" << inflightLoads_;
    if (!retries_.empty()) {
        const PendingRetry &head = retries_.front();
        os << "\n  retry head: " << (head.isWrite ? "store" : "load")
           << " addr=0x" << std::hex << head.addr << std::dec
           << " attempt=" << head.attempt << '/'
           << params_.retry.maxAttempts << " earliest=" << head.earliest;
    }
}

} // namespace csb::mem
