/**
 * @file
 * Bus instrumentation: running totals behind the paper's effective-
 * bandwidth metric (bytes per bus cycle, measured from the first
 * address cycle to the last data cycle; a trailing turnaround cycle is
 * not charged -- section 4.3.1).
 *
 * The monitor keeps no per-transaction log: every query shipped code
 * makes is a total or a min/max over a class of transactions.  The
 * "bus" trace events carry each transaction's detail (sim/trace.hh).
 */

#ifndef CSB_BUS_BUS_MONITOR_HH
#define CSB_BUS_BUS_MONITOR_HH

#include <cstdint>

#include "sim/types.hh"
#include "transaction.hh"

namespace csb::sim {
class CheckpointWriter;
class CheckpointReader;
} // namespace csb::sim

namespace csb::bus {

/** Running totals of one class of started transactions. */
struct BusWindow
{
    std::uint64_t txns = 0;
    /** Data bytes moved (a read request moves none). */
    std::uint64_t bytes = 0;
    std::uint64_t firstAddrCycle = UINT64_MAX;
    std::uint64_t lastDataCycle = 0;

    /**
     * The section 4.3.1 measurement window, in bus cycles: from the
     * first address cycle to the last data cycle, both included, so a
     * trailing turnaround cycle is not charged.  Effective bandwidth
     * is the bytes moved divided by this.
     * @return 0 when no transaction was noted.
     */
    std::uint64_t
    cycles() const
    {
        return txns == 0 ? 0 : lastDataCycle - firstAddrCycle + 1;
    }
};

/**
 * Totals of every transaction the bus starts, and of the I/O writes
 * among them: writes at or above the I/O base the bus was built with.
 */
class BusMonitor
{
  public:
    explicit BusMonitor(Addr io_base) : ioBase_(io_base) {}

    /**
     * Count one started transaction whose tenure runs from bus cycle
     * @p addr_cycle (a read response's is its request's) to
     * @p last_data_cycle.
     */
    void
    note(TxnKind kind, Addr addr, unsigned size, std::uint64_t addr_cycle,
         std::uint64_t last_data_cycle)
    {
        const unsigned moved = kind == TxnKind::ReadReq ? 0 : size;
        add(all_, moved, addr_cycle, last_data_cycle);
        if (kind == TxnKind::Write && addr >= ioBase_)
            add(ioWrites_, moved, addr_cycle, last_data_cycle);
    }

    const BusWindow &all() const { return all_; }
    const BusWindow &ioWrites() const { return ioWrites_; }

    /** Save both windows, so a measurement spanning a checkpoint
     *  matches an uninterrupted run. */
    void checkpointSave(sim::CheckpointWriter &cw) const;
    void checkpointRestore(sim::CheckpointReader &cr);

  private:
    static void
    add(BusWindow &w, unsigned bytes, std::uint64_t addr_cycle,
        std::uint64_t last_data_cycle)
    {
        ++w.txns;
        w.bytes += bytes;
        if (addr_cycle < w.firstAddrCycle)
            w.firstAddrCycle = addr_cycle;
        if (last_data_cycle > w.lastDataCycle)
            w.lastDataCycle = last_data_cycle;
    }

    Addr ioBase_;
    BusWindow all_;
    BusWindow ioWrites_;
};

} // namespace csb::bus

#endif // CSB_BUS_BUS_MONITOR_HH
