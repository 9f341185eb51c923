#include "bus_monitor.hh"

#include <algorithm>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace csb::bus {

namespace {

bool
matches(const std::function<bool(const TxnRecord &)> &pred,
        const TxnRecord &rec)
{
    return !pred || pred(rec);
}

} // namespace

std::uint64_t
BusMonitor::windowCycles(
    const std::function<bool(const TxnRecord &)> &pred) const
{
    std::uint64_t first = UINT64_MAX;
    std::uint64_t last = 0;
    for (const TxnRecord &rec : records_) {
        if (matches(pred, rec)) {
            first = std::min(first, rec.addrCycle);
            last = std::max(last, rec.lastDataCycle);
        }
    }
    return first == UINT64_MAX ? 0 : last - first + 1;
}

void
BusMonitor::checkpointSave(sim::CheckpointWriter &cw) const
{
    cw.putU64(records_.size());
    for (const TxnRecord &rec : records_) {
        cw.putU64(rec.id);
        cw.putU8(static_cast<std::uint8_t>(rec.kind));
        cw.putU64(rec.addr);
        cw.putU32(rec.size);
        cw.putU32(rec.master);
        cw.putU8(rec.stronglyOrdered ? 1 : 0);
        cw.putU64(rec.addrCycle);
        cw.putU64(rec.firstDataCycle);
        cw.putU64(rec.lastDataCycle);
        cw.putU64(rec.requestTick);
        cw.putU64(rec.completionTick);
        cw.putU8(static_cast<std::uint8_t>(rec.status));
    }
}

void
BusMonitor::checkpointRestore(sim::CheckpointReader &cr)
{
    csb_assert(records_.empty(),
               "bus monitor checkpoint restore into a used monitor");
    const std::uint64_t count = cr.getU64();
    records_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        TxnRecord rec;
        rec.id = cr.getU64();
        rec.kind = static_cast<TxnKind>(cr.getU8());
        rec.addr = cr.getU64();
        rec.size = cr.getU32();
        rec.master = static_cast<MasterId>(cr.getU32());
        rec.stronglyOrdered = cr.getU8() != 0;
        rec.addrCycle = cr.getU64();
        rec.firstDataCycle = cr.getU64();
        rec.lastDataCycle = cr.getU64();
        rec.requestTick = cr.getU64();
        rec.completionTick = cr.getU64();
        rec.status = static_cast<BusStatus>(cr.getU8());
        records_.push_back(rec);
    }
}

} // namespace csb::bus
