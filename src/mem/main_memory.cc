#include "main_memory.hh"

namespace csb::mem {

MainMemory::MainMemory(PhysicalMemory &storage, Tick read_latency,
                       std::string name,
                       sim::stats::StatGroup *stat_parent)
    : sim::stats::StatGroup(name, stat_parent),
      reads(this, "reads", "read transactions served"),
      writes(this, "writes", "write transactions absorbed"),
      storage_(storage), readLatency_(read_latency), name_(std::move(name))
{
}

void
MainMemory::write(bus::BusTransaction &txn, Tick)
{
    // A snapshot payload (cache-line spill) describes bytes the image
    // already holds; re-applying it could clobber stores that
    // committed while the spill was queued or retried.  It still
    // counts: the wire carried it either way.
    if (!txn.snapshotPayload)
        storage_.write(txn.addr, txn.data.data(), txn.data.size());
    ++writes;
}

Tick
MainMemory::read(const bus::BusTransaction &txn, Tick,
                 std::vector<std::uint8_t> &data)
{
    data.resize(txn.size);
    storage_.read(txn.addr, data.data(), txn.size);
    ++reads;
    return readLatency_;
}

} // namespace csb::mem
