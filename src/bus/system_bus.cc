#include "system_bus.hh"

#include <algorithm>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace csb::bus {

const char *
txnKindName(TxnKind kind)
{
    switch (kind) {
      case TxnKind::Write: return "write";
      case TxnKind::ReadReq: return "read-req";
      case TxnKind::ReadResp: return "read-resp";
    }
    return "?";
}

const char *
snoopKindName(SnoopKind kind)
{
    switch (kind) {
      case SnoopKind::Read: return "read";
      case SnoopKind::ReadExclusive: return "read-excl";
      case SnoopKind::Upgrade: return "upgrade";
    }
    return "?";
}

const char *
busStatusName(BusStatus status)
{
    switch (status) {
      case BusStatus::Ok: return "ok";
      case BusStatus::Nack: return "nack";
      case BusStatus::Error: return "error";
    }
    return "?";
}

namespace {

/**
 * The trace fields of a started tenure: @p name, then the
 * transaction's address, size, master, ordering and preset @p status,
 * and its address, first-data and last-data bus cycles.
 */
sim::trace::Fields
tenureFields(std::string name, const BusTransaction &txn,
             const std::string &master, BusStatus status,
             std::uint64_t addr_cycle, std::uint64_t first_data_cycle,
             std::uint64_t last_data_cycle)
{
    return sim::trace::Fields{
        std::move(name),
        {{"addr", sim::trace::hexArg(txn.addr)},
         {"size", std::to_string(txn.size)},
         {"master", master},
         {"ordered", txn.stronglyOrdered ? "true" : "false"},
         {"status", busStatusName(status)},
         {"addr_cycle", std::to_string(addr_cycle)},
         {"first_data", std::to_string(first_data_cycle)},
         {"last_data", std::to_string(last_data_cycle)}}};
}

} // namespace

void
BusParams::validate() const
{
    if (!isPowerOf2(widthBytes) || widthBytes == 0 || widthBytes > 64)
        csb_fatal("bus width must be a power of two in [1,64], got ",
                  widthBytes);
    if (ratio == 0)
        csb_fatal("processor:bus frequency ratio must be >= 1");
    if (!isPowerOf2(maxBurstBytes) || maxBurstBytes < widthBytes)
        csb_fatal("max burst must be a power of two >= bus width");
}

SystemBus::SystemBus(sim::Simulator &simulator, const BusParams &params,
                     std::string name, sim::stats::StatGroup *stat_parent,
                     Addr io_base)
    : sim::Clocked(name, sim::ClockDomain(params.ratio), /*eval_order=*/-10),
      sim::stats::StatGroup(name, stat_parent),
      numWrites(this, "numWrites", "write transactions completed"),
      numReads(this, "numReads", "read transactions completed"),
      bytesWritten(this, "bytesWritten", "bytes moved by writes"),
      bytesRead(this, "bytesRead", "bytes moved by read responses"),
      busyDataCycles(this, "busyDataCycles",
                     "bus cycles spent moving address or data"),
      orderingStallCycles(this, "orderingStallCycles",
                          "cycles a ready request waited for an ack"),
      turnaroundCycles(this, "turnaroundCycles",
                       "idle turnaround cycles inserted after tenures"),
      txnLatencyCycles(this, "txnLatencyCycles",
                       "bus cycles from request to completion",
                       0, 128, 4),
      numNacks(this, "numNacks",
               "transactions completed with a NACK status"),
      numErrors(this, "numErrors",
                "transactions completed with an error status"),
      snoopProbes(this, "snoopProbes", "snoop broadcasts issued"),
      snoopHits(this, "snoopHits", "probed caches that held a copy"),
      snoopMisses(this, "snoopMisses",
                  "broadcasts no other cache had the line for"),
      snoopInterventions(this, "snoopInterventions",
                         "broadcasts supplied cache-to-cache"),
      snoopInvalidations(this, "snoopInvalidations",
                         "copies invalidated by broadcast probes"),
      snoopWritebacks(this, "snoopWritebacks",
                      "dirty copies demand-written-back by probes"),
      utilization(this, "utilization",
                  "busy fraction of elapsed bus cycles",
                  [this] {
                      std::uint64_t c = curBusCycle();
                      return c ? busyDataCycles.value() /
                                     static_cast<double>(c)
                               : 0.0;
                  }),
      sim_(simulator), params_(params), monitor_(io_base)
{
    params_.validate();
    simulator.registerClocked(this);
}

SystemBus::~SystemBus() = default;

MasterId
SystemBus::registerMaster(const std::string &name)
{
    // One allocation per vector covers a System's masters (two ports,
    // a miss port and the CSB per core, the NI's DMA) up to two cores.
    if (masterNames_.empty()) {
        constexpr std::size_t typical = 8;
        masterNames_.reserve(typical);
        slots_.reserve(typical);
        lastOrderedAddrCycle_.reserve(typical);
    }
    masterNames_.push_back(name);
    slots_.emplace_back();
    lastOrderedAddrCycle_.push_back(
        -static_cast<std::int64_t>(params_.ackDelay) - 1);
    return static_cast<MasterId>(masterNames_.size() - 1);
}

void
SystemBus::addTarget(Addr base, Addr size, BusTarget *target)
{
    csb_assert(target != nullptr, "null bus target");
    for (const TargetRange &range : targets_) {
        bool disjoint = base + size <= range.base ||
                        range.base + range.size <= base;
        if (!disjoint) {
            csb_fatal("bus target '", target->targetName(),
                      "' overlaps '", range.target->targetName(), "'");
        }
    }
    if (targets_.empty())
        targets_.reserve(4); // memory, device and NI in one allocation
    targets_.push_back(TargetRange{base, size, target});
}

void
SystemBus::checkTransaction(const BusTransaction &txn) const
{
    csb_assert(txn.size > 0 && isPowerOf2(txn.size),
               "transaction size must be a non-zero power of two, got ",
               txn.size);
    csb_assert(txn.size <= params_.maxBurstBytes,
               "transaction larger than max burst: ", txn.size);
    csb_assert(txn.addr % txn.size == 0,
               "transaction not naturally aligned: addr=", txn.addr,
               " size=", txn.size);
    csb_assert(txn.master < slots_.size(), "unknown master ", txn.master);
}

BusTarget *
SystemBus::findTarget(Addr addr, unsigned size) const
{
    for (const TargetRange &range : targets_) {
        if (addr >= range.base && addr + size <= range.base + range.size)
            return range.target;
    }
    return nullptr;
}

void
SystemBus::unmappedAbort(const BusTransaction &txn) const
{
    csb_panic("no bus target for addr 0x", std::hex, txn.addr, std::dec,
              " size ", txn.size, " (", txnKindName(txn.kind),
              " issued by master '", masterNames_[txn.master],
              "'; set BusParams::errorResponses to deliver a bus error "
              "instead of aborting)");
}

void
SystemBus::noteFailure(const BusTransaction &txn, BusStatus status,
                       Tick when)
{
    if (status == BusStatus::Nack)
        numNacks += 1;
    else if (status == BusStatus::Error)
        numErrors += 1;
    sim::trace::instant("bus", when, [&] {
        return sim::trace::Fields{
            std::string("bus-") + busStatusName(status),
            {{"addr", sim::trace::hexArg(txn.addr)},
             {"size", std::to_string(txn.size)},
             {"master", masterNames_[txn.master]},
             {"kind", txnKindName(txn.kind)}}};
    });
}

bool
SystemBus::requestWrite(MasterId master, Addr addr,
                        std::vector<std::uint8_t> data,
                        bool strongly_ordered, WriteCallback on_complete,
                        StartCallback on_start, bool snapshot_payload)
{
    csb_assert(master < slots_.size(), "unknown master");
    if (slots_[master].has_value())
        return false;
    ungate();

    Request req;
    req.txn.kind = TxnKind::Write;
    req.txn.addr = addr;
    req.txn.size = static_cast<unsigned>(data.size());
    req.txn.master = master;
    req.txn.stronglyOrdered = strongly_ordered;
    req.txn.data = std::move(data);
    req.txn.snapshotPayload = snapshot_payload;
    req.onWrite = std::move(on_complete);
    req.onStart = std::move(on_start);
    req.requestTick = sim_.curTick();
    checkTransaction(req.txn);
    if (!findTarget(addr, req.txn.size)) {
        // Fail fast on unmapped addresses unless the configuration
        // asks for a bus error response instead.
        if (!params_.errorResponses)
            unmappedAbort(req.txn);
        req.unmapped = true;
    }
    slots_[master] = std::move(req);
    return true;
}

bool
SystemBus::requestRead(MasterId master, Addr addr, unsigned size,
                       bool strongly_ordered, ReadCallback on_complete,
                       StartCallback on_start)
{
    csb_assert(master < slots_.size(), "unknown master");
    if (slots_[master].has_value())
        return false;
    ungate();

    Request req;
    req.txn.kind = TxnKind::ReadReq;
    req.txn.addr = addr;
    req.txn.size = size;
    req.txn.master = master;
    req.txn.stronglyOrdered = strongly_ordered;
    req.onRead = std::move(on_complete);
    req.onStart = std::move(on_start);
    req.requestTick = sim_.curTick();
    checkTransaction(req.txn);
    if (!findTarget(addr, size)) {
        if (!params_.errorResponses)
            unmappedAbort(req.txn);
        req.unmapped = true;
    }
    slots_[master] = std::move(req);
    return true;
}

void
SystemBus::registerSnooper(Snooper *snooper)
{
    csb_assert(snooper != nullptr, "null snooper");
    for (const Snooper *s : snoopers_)
        csb_assert(s != snooper, "snooper registered twice");
    snoopers_.push_back(snooper);
}

SnoopSummary
SystemBus::snoopBroadcast(const Snooper *requester, Addr line_addr,
                          SnoopKind kind)
{
    SnoopSummary summary;
    snoopProbes += 1;
    for (Snooper *snooper : snoopers_) {
        if (snooper == requester)
            continue;
        SnoopReply reply = snooper->snoopProbe(line_addr, kind);
        if (!reply.hadCopy)
            continue;
        ++summary.hits;
        summary.hadCopy = true;
        summary.supplied = summary.supplied || reply.supplied;
        summary.wroteBack = summary.wroteBack || reply.wroteBack;
        snoopHits += 1;
        if (reply.invalidated)
            snoopInvalidations += 1;
        if (reply.wroteBack)
            snoopWritebacks += 1;
    }
    if (!summary.hadCopy)
        snoopMisses += 1;
    if (summary.supplied)
        snoopInterventions += 1;

    sim::trace::instant("bus", sim_.curTick(), [&] {
        return sim::trace::Fields{
            std::string("snoop-") + snoopKindName(kind),
            {{"addr", sim::trace::hexArg(line_addr)},
             {"hits", std::to_string(summary.hits)},
             {"supplied", summary.supplied ? "true" : "false"},
             {"wroteBack", summary.wroteBack ? "true" : "false"}}};
    });
    return summary;
}

bool
SystemBus::masterIdle(MasterId master) const
{
    csb_assert(master < slots_.size(), "unknown master");
    return !slots_[master].has_value();
}

bool
SystemBus::wouldAcceptAtNextEdge(MasterId master, bool strongly_ordered,
                                 bool is_write) const
{
    csb_assert(master < slots_.size(), "unknown master");
    // A request presented during this CPU tick is examined at the
    // next bus edge.
    std::uint64_t c = clockDomain().cycleAt(sim_.curTick()) + 1;
    if (c < addrNextFree_)
        return false;
    if (is_write && params_.kind == BusKind::Split && c < dataNextFree_)
        return false;
    if (strongly_ordered && params_.ackDelay != 0) {
        std::int64_t earliest =
            lastOrderedAddrCycle_[master] +
            static_cast<std::int64_t>(params_.ackDelay);
        if (static_cast<std::int64_t>(c) < earliest)
            return false;
    }
    // A ready response takes priority over new requests on the
    // multiplexed organization.
    if (params_.kind == BusKind::Multiplexed && !responses_.empty() &&
        responses_.front().readyTick <= clockDomain().tickOfCycle(c)) {
        return false;
    }
    return true;
}

Tick
SystemBus::earliestAcceptTick(MasterId master, bool strongly_ordered,
                              bool is_write) const
{
    csb_assert(master < slots_.size(), "unknown master");
    // The check at tick t examines cycle cycleAt(t) + 1, so a floor of
    // cycle f is first met at the edge of cycle f - 1.  The response
    // clause only ever says no, so a lower bound may ignore it.
    std::int64_t floor = static_cast<std::int64_t>(addrNextFree_);
    if (is_write && params_.kind == BusKind::Split)
        floor = std::max(floor, static_cast<std::int64_t>(dataNextFree_));
    if (strongly_ordered && params_.ackDelay != 0) {
        floor = std::max(floor,
                         lastOrderedAddrCycle_[master] +
                             static_cast<std::int64_t>(params_.ackDelay));
    }
    if (floor <= 0)
        return 0;
    return clockDomain().tickOfCycle(static_cast<std::uint64_t>(floor - 1));
}

bool
SystemBus::quiescent() const
{
    if (inFlight_ > 0 || !responses_.empty())
        return false;
    for (const auto &slot : slots_) {
        if (slot.has_value())
            return false;
    }
    return true;
}

std::uint64_t
SystemBus::curBusCycle() const
{
    return clockDomain().cycleAt(sim_.curTick());
}

unsigned
SystemBus::dataCycles(unsigned size) const
{
    return static_cast<unsigned>(divCeil(size, params_.widthBytes));
}

bool
SystemBus::orderingAllows(const Request &req, std::uint64_t c) const
{
    if (!req.txn.stronglyOrdered || params_.ackDelay == 0)
        return true;
    std::int64_t earliest =
        lastOrderedAddrCycle_[req.txn.master] +
        static_cast<std::int64_t>(params_.ackDelay);
    return static_cast<std::int64_t>(c) >= earliest;
}

void
SystemBus::accrueStalls(Tick until)
{
    orderingStallCycles +=
        double(stallsPerCycle_) * double(takeSkippedEdges(until));
}

void
SystemBus::settle()
{
    accrueStalls(sim_.curTick());
}

void
SystemBus::tick()
{
    accrueStalls(sim_.curTick());
    stallsPerCycle_ = 0;
    std::uint64_t c = curBusCycle();
    if (quiescent()) {
        // No request, no queued response, nothing in flight: the bus
        // sleeps until a master presents a new transaction.
        gate();
        return;
    }
    bool data_path_taken = tryStartResponse(c);
    if (!tryStartRequest(c, data_path_taken) && !data_path_taken) {
        // Nothing started, and nothing can before the tick below
        // unless a request or a read response arrives, which wakes
        // the bus.
        Tick wake = nextStartTick(c);
        if (wake == maxTick)
            gate();
        else
            sleepUntil(wake);
    }
}

Tick
SystemBus::nextStartTick(std::uint64_t c) const
{
    const sim::ClockDomain &clock = clockDomain();
    Tick wake = maxTick;
    if (!responses_.empty()) {
        const PendingResponse &resp = responses_.front();
        if (resp.readyTick > sim_.curTick()) {
            wake = resp.readyTick;
        } else {
            wake = clock.tickOfCycle(params_.kind == BusKind::Multiplexed
                                         ? addrNextFree_
                                         : dataNextFree_);
        }
    }
    for (const auto &slot : slots_) {
        if (!slot.has_value())
            continue;
        std::uint64_t cycle;
        if (c < addrNextFree_) {
            cycle = addrNextFree_;
        } else if (!orderingAllows(*slot, c)) {
            cycle = static_cast<std::uint64_t>(
                lastOrderedAddrCycle_[slot->txn.master] +
                static_cast<std::int64_t>(params_.ackDelay));
        } else {
            // Only a split-bus write waiting for the data path is
            // left: nothing else stops a ready request.
            cycle = dataNextFree_;
        }
        wake = std::min(wake, clock.tickOfCycle(cycle));
    }
    return wake;
}

bool
SystemBus::tryStartResponse(std::uint64_t c)
{
    if (responses_.empty())
        return false;

    PendingResponse &resp = responses_.front();
    Tick now = sim_.curTick();
    if (resp.readyTick > now)
        return false;

    unsigned cycles = dataCycles(resp.txn.size);
    if (params_.kind == BusKind::Multiplexed) {
        if (c < addrNextFree_)
            return false;
        addrNextFree_ = c + cycles + params_.turnaround;
    } else {
        if (c < dataNextFree_)
            return false;
        dataNextFree_ = c + cycles + params_.turnaround;
    }

    const std::uint64_t last_data = c + cycles - 1;
    const Tick completion = clockDomain().tickOfCycle(last_data + 1);
    monitor_.note(TxnKind::ReadResp, resp.txn.addr, resp.txn.size,
                  resp.reqAddrCycle, last_data);

    numReads += 1;
    bytesRead += resp.txn.size;
    busyDataCycles += cycles;
    turnaroundCycles += params_.turnaround;
    txnLatencyCycles.sample(
        static_cast<double>(completion - resp.requestTick) /
        clockDomain().period());

    sim::trace::span("bus", clockDomain().tickOfCycle(c), completion, [&] {
        return tenureFields(
            "read-resp " + std::to_string(resp.txn.size) + "B", resp.txn,
            masterNames_[resp.txn.master], BusStatus::Ok, resp.reqAddrCycle,
            c, last_data);
    });

    sim_.eventQueue().scheduleFunc(
        completion,
        [this, data = std::move(resp.txn.data),
         on_read = std::move(resp.onRead), when = completion] {
            --inFlight_;
            if (on_read)
                on_read(when, BusStatus::Ok, data);
        });
    responses_.pop_front();
    return true;
}

bool
SystemBus::tryStartRequest(std::uint64_t c, bool data_path_taken)
{
    if (slots_.empty())
        return false;

    // On the multiplexed organization a response tenure consumes the
    // whole bus for this cycle.
    if (params_.kind == BusKind::Multiplexed && data_path_taken)
        return false;

    if (c < addrNextFree_)
        return false;

    std::size_t n = slots_.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t m = (lastGranted_ + 1 + i) % n;
        if (!slots_[m].has_value())
            continue;
        Request &req = *slots_[m];
        if (!orderingAllows(req, c)) {
            orderingStallCycles += 1;
            ++stallsPerCycle_;
            continue;
        }
        if (req.txn.kind == TxnKind::Write) {
            // A split-bus write drives address and data together, so
            // the data path must be free as well.
            if (params_.kind == BusKind::Split &&
                (data_path_taken || c < dataNextFree_)) {
                continue;
            }
            startWrite(req, c);
        } else {
            startRead(req, c);
        }
        lastGranted_ = m;
        slots_[m].reset();
        return true;
    }
    return false;
}

void
SystemBus::startWrite(Request &req, std::uint64_t c)
{
    unsigned cycles = dataCycles(req.txn.size);

    std::uint64_t first_data;
    if (params_.kind == BusKind::Multiplexed) {
        first_data = c + 1;
        addrNextFree_ = c + 1 + cycles + params_.turnaround;
        busyDataCycles += 1 + cycles;
    } else {
        first_data = c;
        addrNextFree_ = c + 1;
        dataNextFree_ = c + cycles + params_.turnaround;
        busyDataCycles += cycles;
    }
    const std::uint64_t last_data = first_data + cycles - 1;
    const Tick completion = clockDomain().tickOfCycle(last_data + 1);

    // Injected faults are decided when the tenure starts; drawing here
    // rather than at completion lets the trace show the outcome, and
    // is equally deterministic.
    BusStatus preset = BusStatus::Ok;
    if (req.unmapped)
        preset = BusStatus::Error;
    else if (injector_ && injector_->shouldFault(sim::FaultSite::BusError,
                                                 clockDomain().tickOfCycle(c)))
        preset = BusStatus::Error;
    else if (injector_ &&
             injector_->shouldFault(sim::FaultSite::BusWriteNack,
                                    clockDomain().tickOfCycle(c)))
        preset = BusStatus::Nack;

    if (req.txn.stronglyOrdered)
        lastOrderedAddrCycle_[req.txn.master] = static_cast<std::int64_t>(c);

    monitor_.note(TxnKind::Write, req.txn.addr, req.txn.size, c, last_data);
    numWrites += 1;
    bytesWritten += req.txn.size;
    turnaroundCycles += params_.turnaround;
    txnLatencyCycles.sample(
        static_cast<double>(completion - req.requestTick) /
        clockDomain().period());
    ++inFlight_;
    sim_.noteProgress();
    sim::trace::span("bus", clockDomain().tickOfCycle(c), completion, [&] {
        return tenureFields("write " + std::to_string(req.txn.size) + "B",
                            req.txn, masterNames_[req.txn.master], preset, c,
                            first_data, last_data);
    });

    if (req.onStart)
        req.onStart(sim_.curTick());

    BusTarget *target = findTarget(req.txn.addr, req.txn.size);
    sim_.eventQueue().scheduleFunc(
        completion,
        [this, target, preset, txn = std::move(req.txn),
         cb = std::move(req.onWrite), when = completion]() mutable {
            --inFlight_;
            BusStatus status = preset;
            // Target flow control only matters for transfers the wire
            // actually carried intact.
            if (status == BusStatus::Ok)
                status = target->accept(txn, when);
            txn.status = status;
            if (status == BusStatus::Ok)
                target->write(txn, when);
            else
                noteFailure(txn, status, when);
            if (cb)
                cb(when, status, txn.data);
        });
}

void
SystemBus::startRead(Request &req, std::uint64_t c)
{
    BusStatus preset = BusStatus::Ok;
    if (req.unmapped)
        preset = BusStatus::Error;
    else if (injector_ && injector_->shouldFault(sim::FaultSite::BusError,
                                                 clockDomain().tickOfCycle(c)))
        preset = BusStatus::Error;
    else if (injector_ &&
             injector_->shouldFault(sim::FaultSite::BusReadNack,
                                    clockDomain().tickOfCycle(c)))
        preset = BusStatus::Nack;

    addrNextFree_ = c + 1 +
        (params_.kind == BusKind::Multiplexed ? params_.turnaround : 0);
    busyDataCycles += 1;
    if (params_.kind == BusKind::Multiplexed)
        turnaroundCycles += params_.turnaround;

    if (req.txn.stronglyOrdered)
        lastOrderedAddrCycle_[req.txn.master] = static_cast<std::int64_t>(c);

    // The request tenure is its address cycle only.
    monitor_.note(TxnKind::ReadReq, req.txn.addr, req.txn.size, c, c);
    ++inFlight_;
    sim_.noteProgress();
    Tick addr_end = clockDomain().tickOfCycle(c + 1);
    sim::trace::span("bus", clockDomain().tickOfCycle(c), addr_end, [&] {
        return tenureFields("read-req", req.txn, masterNames_[req.txn.master],
                            preset, c, c, c);
    });

    if (req.onStart)
        req.onStart(sim_.curTick());

    // Ask the target for the data at the end of the address cycle.
    BusTarget *target = findTarget(req.txn.addr, req.txn.size);
    sim_.eventQueue().scheduleFunc(
        addr_end,
        [this, target, preset, txn = std::move(req.txn),
         on_read = std::move(req.onRead), request_tick = req.requestTick,
         addr_cycle = c, addr_end]() mutable {
            BusStatus status = preset;
            if (status == BusStatus::Ok)
                status = target->accept(txn, addr_end);
            if (status != BusStatus::Ok) {
                // A NACKed/errored read never occupies a response
                // tenure: the master learns at the address-cycle end
                // and must retry (or give up) itself.
                --inFlight_;
                txn.status = status;
                noteFailure(txn, status, addr_end);
                if (on_read)
                    on_read(addr_end, status, {});
                return;
            }
            std::vector<std::uint8_t> data;
            Tick latency = target->read(txn, addr_end, data);
            csb_assert(data.size() == txn.size,
                       "target returned wrong read size");
            ungate();
            PendingResponse &resp = responses_.emplace_back();
            resp.txn = std::move(txn);
            resp.txn.kind = TxnKind::ReadResp;
            resp.txn.data = std::move(data);
            resp.onRead = std::move(on_read);
            resp.readyTick = addr_end + latency;
            resp.reqAddrCycle = addr_cycle;
            resp.requestTick = request_tick;
        });
}

void
SystemBus::checkpointSave(sim::CheckpointWriter &cw) const
{
    csb_assert(quiescent(), "bus checkpoint requires a quiescent bus");
    cw.putU64(addrNextFree_);
    cw.putU64(dataNextFree_);
    cw.putU64(lastGranted_);
    cw.putU64(lastOrderedAddrCycle_.size());
    for (std::int64_t cycle : lastOrderedAddrCycle_)
        cw.putU64(static_cast<std::uint64_t>(cycle));
    monitor_.checkpointSave(cw);
}

void
SystemBus::checkpointRestore(sim::CheckpointReader &cr)
{
    csb_assert(quiescent(), "bus checkpoint restore into a busy bus");
    addrNextFree_ = cr.getU64();
    dataNextFree_ = cr.getU64();
    lastGranted_ = static_cast<std::size_t>(cr.getU64());
    const std::uint64_t masters = cr.getU64();
    if (masters != lastOrderedAddrCycle_.size())
        csb_fatal("checkpoint bus has ", masters,
                  " masters, this bus has ", lastOrderedAddrCycle_.size());
    for (std::int64_t &cycle : lastOrderedAddrCycle_)
        cycle = static_cast<std::int64_t>(cr.getU64());
    monitor_.checkpointRestore(cr);
}

void
SystemBus::debugDump(std::ostream &os) const
{
    unsigned waiting = 0;
    for (const auto &slot : slots_) {
        if (slot.has_value())
            ++waiting;
    }
    os << "inFlight=" << inFlight_ << " pendingRequests=" << waiting
       << " pendingResponses=" << responses_.size()
       << " addrNextFree=" << addrNextFree_ << " curCycle="
       << curBusCycle();
    if (injector_) {
        os << '\n';
        injector_->debugDump(os);
    }
}

} // namespace csb::bus
