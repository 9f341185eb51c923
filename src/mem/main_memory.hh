/**
 * @file
 * Main memory as a bus target: functional storage plus a fixed
 * access latency for reads (writes complete with the bus transfer).
 */

#ifndef CSB_MEM_MAIN_MEMORY_HH
#define CSB_MEM_MAIN_MEMORY_HH

#include <string>

#include "bus/bus_target.hh"
#include "physical_memory.hh"
#include "sim/stats.hh"

namespace csb::mem {

/** DRAM model: constant-latency reads, posted writes. */
class MainMemory : public bus::BusTarget, public sim::stats::StatGroup
{
  public:
    MainMemory(PhysicalMemory &storage, Tick read_latency,
               std::string name = "mem",
               sim::stats::StatGroup *stat_parent = nullptr);

    const std::string &targetName() const override { return name_; }

    void write(bus::BusTransaction &txn, Tick now) override;

    Tick read(const bus::BusTransaction &txn, Tick now,
              std::vector<std::uint8_t> &data) override;

    sim::stats::Scalar reads;
    sim::stats::Scalar writes;

  private:
    PhysicalMemory &storage_;
    Tick readLatency_;
    std::string name_;
};

} // namespace csb::mem

#endif // CSB_MEM_MAIN_MEMORY_HH
