#include "traffic_generator.hh"

#include "sim/logging.hh"

namespace csb::bus {

TrafficGenerator::TrafficGenerator(sim::Simulator &simulator,
                                   SystemBus &bus,
                                   const TrafficGeneratorParams &params,
                                   std::string name,
                                   sim::stats::StatGroup *stat_parent)
    : sim::Clocked(name, sim::ClockDomain(bus.params().ratio),
                   /*eval_order=*/-4),
      sim::stats::StatGroup(name, stat_parent),
      reads(this, "reads", "background read transactions"),
      writes(this, "writes", "background write transactions"),
      bytesMoved(this, "bytesMoved", "background bytes moved"),
      retries(this, "retries", "issue attempts the bus deferred"),
      busNacks(this, "busNacks", "transactions NACKed on the bus"),
      busRetries(this, "busRetries",
                 "NACKed transactions reissued after backoff"),
      sim_(simulator), bus_(bus), params_(params),
      rng_(params.seed)
{
    csb_assert(isPowerOf2(params_.txnBytes), "txn size must be 2^n");
    csb_assert(params_.interval >= 1.0, "interval must be >= 1 cycle");
    masterId_ = bus_.registerMaster(name + ".port");
    simulator.registerClocked(this);
}

void
TrafficGenerator::tick()
{
    if (!running_ && !redo_) {
        // Stopped with no pending retry: sleep until start() (or a
        // late NACK completion arming redo_) ungates us.
        gate();
        return;
    }

    // A NACKed transaction waiting out its backoff takes precedence
    // over new traffic (and is serviced even after stop()).
    if (redo_) {
        if (sim_.curTick() < redo_->earliest || !bus_.masterIdle(masterId_))
            return;
        Redo redo = *redo_;
        redo_.reset();
        issue(redo.addr, redo.isWrite, redo.attempt);
        return;
    }

    if (!running_)
        return;
    auto cycle = static_cast<double>(bus_.curBusCycle());
    if (cycle < nextIssueCycle_)
        return;
    if (!bus_.masterIdle(masterId_)) {
        retries += 1;
        return;
    }

    // Uniformly distributed line-aligned address within the region.
    Addr span = params_.regionSize / params_.txnBytes;
    Addr addr = params_.base +
                rng_.uniform(0, span - 1) * params_.txnBytes;
    bool is_write = rng_.uniform01() < params_.writeFraction;

    issue(addr, is_write, /*attempt=*/0);
    if (is_write)
        writes += 1;
    else
        reads += 1;
    bytesMoved += params_.txnBytes;

    // Schedule the next attempt with +/-50% jitter around the mean
    // interval so the load does not phase-lock with the victim.
    double jitter = 0.5 + rng_.uniform01();
    nextIssueCycle_ = cycle + params_.interval * jitter;
}

void
TrafficGenerator::issue(Addr addr, bool is_write, unsigned attempt)
{
    if (is_write) {
        std::vector<std::uint8_t> data(params_.txnBytes, 0xb6);
        bool ok = bus_.requestWrite(
            masterId_, addr, std::move(data),
            /*strongly_ordered=*/false,
            [this, addr, attempt](Tick when, BusStatus status,
                                  std::vector<std::uint8_t> &) {
                onCompletion(addr, true, attempt, when, status);
            });
        csb_assert(ok, "traffic write refused despite idle master");
    } else {
        bool ok = bus_.requestRead(
            masterId_, addr, params_.txnBytes,
            /*strongly_ordered=*/false,
            [this, addr, attempt](Tick when, BusStatus status,
                                  const std::vector<std::uint8_t> &) {
                onCompletion(addr, false, attempt, when, status);
            });
        csb_assert(ok, "traffic read refused despite idle master");
    }
}

void
TrafficGenerator::onCompletion(Addr addr, bool is_write, unsigned attempt,
                               Tick when, BusStatus status)
{
    if (status == BusStatus::Ok)
        return;
    if (status == BusStatus::Error) {
        csb_fatal("traffic generator ", sim::Clocked::name(),
                  ": bus error on ", is_write ? "write" : "read",
                  " at 0x", std::hex, addr);
    }
    busNacks += 1;
    if (attempt + 1 >= params_.retry.maxAttempts) {
        csb_fatal("traffic generator ", sim::Clocked::name(),
                  ": retries exhausted (", params_.retry.maxAttempts,
                  ") at 0x", std::hex, addr);
    }
    busRetries += 1;
    redo_ = Redo{is_write, addr, attempt + 1,
                 when + params_.retry.backoffFor(attempt + 1)};
    ungate();
}

} // namespace csb::bus
