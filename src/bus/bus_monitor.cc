#include "bus_monitor.hh"

#include <initializer_list>

#include "sim/checkpoint.hh"

namespace csb::bus {

void
BusMonitor::checkpointSave(sim::CheckpointWriter &cw) const
{
    for (const BusWindow *w : {&all_, &ioWrites_}) {
        cw.putU64(w->txns);
        cw.putU64(w->bytes);
        cw.putU64(w->firstAddrCycle);
        cw.putU64(w->lastDataCycle);
    }
}

void
BusMonitor::checkpointRestore(sim::CheckpointReader &cr)
{
    for (BusWindow *w : {&all_, &ioWrites_}) {
        w->txns = cr.getU64();
        w->bytes = cr.getU64();
        w->firstAddrCycle = cr.getU64();
        w->lastDataCycle = cr.getU64();
    }
}

} // namespace csb::bus
