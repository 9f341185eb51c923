#include "replay_core.hh"

#include "sim/logging.hh"

namespace csb::core {

ReplayCore::ReplayCore(sim::Simulator &simulator,
                       const cpu::CoreMemPorts &ports,
                       std::vector<sim::TraceRecord> records,
                       std::string name)
    : sim::Clocked(std::move(name), sim::ClockDomain(1), /*eval_order=*/0),
      sim_(simulator), ports_(ports), records_(std::move(records))
{
    csb_assert(ports_.caches && ports_.ubuf && ports_.memory,
               "replay core needs caches, ubuf and memory ports");
    for (const sim::TraceRecord &rec : records_) {
        if (rec.flags & sim::TraceFlagInterpreter)
            csb_fatal("interpreter-sourced traces are not cycle-accurate "
                      "and cannot be replayed (docs/TRACE_FORMAT.md)");
    }
    simulator.registerClocked(this);
    scheduleNext();
}

void
ReplayCore::scheduleNext()
{
    gate();
    if (next_ >= records_.size())
        return;
    Tick when = records_[next_].tick;
    csb_assert(when >= sim_.curTick(), "replay record in the past");
    if (wakeupAt_ == when)
        return;
    wakeupAt_ = when;
    // MinimumPri: the pump runs after every regular event of the tick,
    // mirroring where the live core's completion callbacks landed.
    sim_.eventQueue().scheduleFunc(when, [this] { pump(); },
                                   sim::EventQueue::MinimumPri);
}

void
ReplayCore::pump()
{
    wakeupAt_ = maxTick;
    Tick now = sim_.curTick();
    while (next_ < records_.size() && records_[next_].tick == now &&
           records_[next_].eventPhase()) {
        issue(records_[next_]);
        ++next_;
    }
    if (next_ < records_.size() && records_[next_].tick == now) {
        // Clocked-phase records due this tick: the clocked phase has
        // not run yet (events fire first), so ungating here makes
        // tick() fire at exactly the recorded tick.
        ungate();
        return;
    }
    scheduleNext();
}

void
ReplayCore::tick()
{
    Tick now = sim_.curTick();
    while (next_ < records_.size() && records_[next_].tick == now &&
           !records_[next_].eventPhase()) {
        issue(records_[next_]);
        ++next_;
    }
    scheduleNext();
}

void
ReplayCore::issue(const sim::TraceRecord &rec)
{
    Tick now = sim_.curTick();
    switch (rec.op) {
      case sim::TraceOp::CachedLoad:
        // value carries the recorded TLB penalty: the live core issued
        // the lookup at now + penalty; tags mutate at call time either
        // way, only the (discarded) completion callback shifts.
        ports_.caches->access(rec.addr, /*is_write=*/false,
                              now + rec.value, [](Tick) {});
        break;

      case sim::TraceOp::CachedStore:
        ports_.memory->write(rec.addr, &rec.value, rec.size);
        ports_.caches->accessLatency(rec.addr, /*is_write=*/true);
        break;

      case sim::TraceOp::CachedSwapStart:
        ports_.caches->access(rec.addr, /*is_write=*/true, now,
                              [](Tick) {});
        break;

      case sim::TraceOp::SwapMemWrite:
        ports_.memory->write(rec.addr, &rec.value, rec.size);
        break;

      case sim::TraceOp::UncachedLoad:
        // The recorded run only issued once the buffer had room; an
        // identically configured replay sees the identical occupancy.
        csb_assert(ports_.ubuf->canAcceptLoad(),
                   "replay: uncached buffer refused a recorded load");
        ports_.ubuf->pushLoad(
            rec.addr, rec.size,
            [](Tick, const std::vector<std::uint8_t> &) {});
        break;

      case sim::TraceOp::UncachedStore:
        csb_assert(ports_.ubuf->canAcceptStore(rec.addr, rec.size),
                   "replay: uncached buffer refused a recorded store");
        ports_.ubuf->pushStore(rec.addr, rec.size, &rec.value);
        break;

      case sim::TraceOp::CsbStore:
        csb_assert(ports_.csb, "replay: CSB record without a CSB");
        csb_assert(ports_.csb->canAcceptStore(),
                   "replay: CSB refused a recorded combining store");
        ports_.csb->store(static_cast<ProcId>(rec.pid), rec.addr,
                          rec.size, &rec.value);
        break;

      case sim::TraceOp::CsbFlush:
        csb_assert(ports_.csb, "replay: CSB record without a CSB");
        // value carries the expected hit count; the outcome steered
        // the recorded program, so the stream already reflects it.
        (void)ports_.csb->conditionalFlush(static_cast<ProcId>(rec.pid),
                                           rec.addr, rec.value);
        break;

      case sim::TraceOp::Membar:
        // Ordering is implied by the stream; nothing to drive.
        break;
    }
}

void
ReplayCore::debugDump(std::ostream &os) const
{
    os << "issued=" << next_ << "/" << records_.size()
       << " wakeupAt=" << wakeupAt_;
}

} // namespace csb::core
