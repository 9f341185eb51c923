/**
 * @file
 * A generic burst-capable I/O device target.
 *
 * Records every write with its completion timestamp, which is what
 * the bandwidth experiments measure.  Section 3.3 notes that the CSB
 * needs the target device to accept burst writes; setting
 * maxAcceptBytes below the line size models a device that cannot, and
 * the bus (which has no retry semantics in this model) reports it as
 * a fatal configuration error -- surfacing the system implication.
 */

#ifndef CSB_IO_BURST_DEVICE_HH
#define CSB_IO_BURST_DEVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bus/bus_target.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"

namespace csb::io {

/** One write observed by the device. */
struct DeviceWrite
{
    Addr addr = 0;
    std::vector<std::uint8_t> data;
    Tick completionTick = 0;
};

/** Burst-capable memory-mapped device. */
class BurstDevice : public bus::BusTarget, public sim::stats::StatGroup
{
  public:
    /**
     * @param read_latency  latency of register reads, CPU ticks
     * @param max_accept    largest write the device accepts (bytes)
     */
    BurstDevice(Tick read_latency = 12, unsigned max_accept = 128,
                std::string name = "dev",
                sim::stats::StatGroup *stat_parent = nullptr);

    const std::string &targetName() const override { return name_; }

    /**
     * Flow control hook: while the FaultSite::DeviceHang site is
     * active (a scheduled hang window, docs/FAULTS.md) the device
     * NACKs every write, so masters exhaust retry budgets and must
     * recover.  With no injector or no hang configured this is the
     * always-Ok default.
     */
    bus::BusStatus accept(const bus::BusTransaction &txn,
                          Tick now) override;

    /** Logs the write, taking txn.data without a copy. */
    void write(bus::BusTransaction &txn, Tick now) override;

    Tick read(const bus::BusTransaction &txn, Tick now,
              std::vector<std::uint8_t> &data) override;

    const std::vector<DeviceWrite> &writeLog() const { return writeLog_; }
    void clearLog() { writeLog_.clear(); }

    /** Set the value returned by register reads at @p addr. */
    void setRegister(Addr addr, std::uint64_t value);

    /** Attach the system's fault injector (null to detach). */
    void setFaultInjector(sim::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /**
     * Serialize the write log and register file so device-side
     * measurements spanning a checkpoint boundary match an
     * uninterrupted run.  Restore requires an empty write log.
     */
    void checkpointSave(sim::CheckpointWriter &cw) const;
    void checkpointRestore(sim::CheckpointReader &cr);

    sim::stats::Scalar writesReceived;
    sim::stats::Scalar bytesReceived;
    sim::stats::Scalar readsServed;

  private:
    std::string name_;
    Tick readLatency_;
    unsigned maxAccept_;
    sim::FaultInjector *injector_ = nullptr;
    std::vector<DeviceWrite> writeLog_;
    std::vector<std::pair<Addr, std::uint64_t>> registers_;
};

} // namespace csb::io

#endif // CSB_IO_BURST_DEVICE_HH
