/**
 * @file
 * Every knob of a simulated system in one structure.
 */

#ifndef CSB_CORE_SYSTEM_CONFIG_HH
#define CSB_CORE_SYSTEM_CONFIG_HH

#include <ostream>

#include "bus/system_bus.hh"
#include "cpu/core.hh"
#include "io/network_interface.hh"
#include "mem/cache.hh"
#include "mem/csb.hh"
#include "mem/uncached_buffer.hh"
#include "sim/fault.hh"
#include "sim/types.hh"

namespace csb::core {

/**
 * Complete configuration of a System.  Call normalize() after
 * editing: it propagates the cache-line size into the caches, CSB and
 * bus max-burst so a single lineBytes edit reconfigures everything,
 * exactly as the paper's block-size sweeps do.
 */
struct SystemConfig
{
    /** Cache line size; also the CSB line and the largest bus burst. */
    unsigned lineBytes = 64;

    /**
     * Processors on the shared bus (SMP node, as in the paper's
     * motivation).  Each core gets a private TLB, cache hierarchy,
     * uncached buffer and CSB; bus, memory and devices are shared.
     * Multi-core workloads that share writable cached data need a
     * coherence protocol -- set coherence.kind (default None keeps
     * the legacy private-cache semantics, where sharing cached
     * writable lines between cores is a workload bug).
     */
    unsigned numCores = 1;

    /**
     * Snooping cache coherence across the per-core hierarchies
     * (mem/coherence.hh).  None by default: single-core systems need
     * no snooping and all legacy artifacts stay byte-identical.
     */
    mem::CoherenceParams coherence;

    bus::BusParams bus;

    cpu::CoreParams core;

    mem::UncachedBufferParams ubuf;

    bool enableCsb = true;
    mem::CsbParams csb;

    mem::CacheParams l1{32 * 1024, 2, 64, /*hitLatency=*/2};
    mem::CacheParams l2{512 * 1024, 4, 64, /*hitLatency=*/8};

    /**
     * Fixed latency charged past the L2 when misses are NOT routed
     * over the bus.  Tuned so an L1 miss costs ~100 CPU cycles total
     * (the paper's reference point in section 4.3.2).
     */
    Tick fixedMissLatency = 90;

    /** Route L2 misses over the system bus as line reads. */
    bool routeMissesOverBus = false;

    /** Main-memory read latency seen by the bus target. */
    Tick memReadLatency = 60;

    unsigned tlbEntries = 64;
    Tick tlbMissPenalty = 20;

    bool enableNi = false;
    io::NetworkInterfaceParams ni;

    /** Device register-read latency and burst capability. */
    Tick deviceReadLatency = 12;
    unsigned deviceMaxAccept = 128;

    /**
     * Seeded fault plan.  All-zero rates (the default) build no
     * injector at all, keeping clean runs bit-identical to a build
     * without the fault machinery.
     */
    sim::FaultPlan faults;

    /**
     * Forward-progress watchdog window in ticks: the run aborts with
     * a diagnostic FatalError after this many ticks with no retire
     * and no bus activity.  0 (default) disables the watchdog.
     */
    Tick watchdogTicks = 0;

    /** Propagate lineBytes; validate everything. */
    void normalize();
};

/**
 * The knob table: calls @p v(name, member) for every setting of @p c
 * (which may be const), in a fixed order.  The checkpoint fingerprint
 * and printConfig() derive from it.  The line sizes normalize() sets
 * (l1/l2/csb.lineBytes, bus.maxBurstBytes) are not knobs.
 */
template <class Config, class Visitor>
void
visitKnobs(Config &&c, Visitor &&v)
{
    v("lineBytes", c.lineBytes);
    v("numCores", c.numCores);
    v("coherence.kind", c.coherence.kind);
    v("coherence.upgradeLatency", c.coherence.upgradeLatency);
    v("coherence.cacheToCacheLatency", c.coherence.cacheToCacheLatency);
    v("bus.kind", c.bus.kind);
    v("bus.widthBytes", c.bus.widthBytes);
    v("bus.ratio", c.bus.ratio);
    v("bus.turnaround", c.bus.turnaround);
    v("bus.ackDelay", c.bus.ackDelay);
    v("bus.errorResponses", c.bus.errorResponses);
    v("core.fetchWidth", c.core.fetchWidth);
    v("core.retireWidth", c.core.retireWidth);
    v("core.windowSize", c.core.windowSize);
    v("core.intUnits", c.core.intUnits);
    v("core.fpUnits", c.core.fpUnits);
    v("core.memPorts", c.core.memPorts);
    v("core.maxUncachedRetirePerCycle", c.core.maxUncachedRetirePerCycle);
    v("core.intLatency", c.core.intLatency);
    v("core.mulLatency", c.core.mulLatency);
    v("core.fpLatency", c.core.fpLatency);
    v("core.csbFlushLatency", c.core.csbFlushLatency);
    v("ubuf.entries", c.ubuf.entries);
    v("ubuf.combineBytes", c.ubuf.combineBytes);
    v("ubuf.policy", c.ubuf.policy);
    v("ubuf.retry.initialBackoffTicks", c.ubuf.retry.initialBackoffTicks);
    v("ubuf.retry.multiplier", c.ubuf.retry.multiplier);
    v("ubuf.retry.maxBackoffTicks", c.ubuf.retry.maxBackoffTicks);
    v("ubuf.retry.maxAttempts", c.ubuf.retry.maxAttempts);
    v("enableCsb", c.enableCsb);
    v("csb.numLineBuffers", c.csb.numLineBuffers);
    v("csb.checkAddress", c.csb.checkAddress);
    v("csb.partialFlush", c.csb.partialFlush);
    v("csb.retry.initialBackoffTicks", c.csb.retry.initialBackoffTicks);
    v("csb.retry.multiplier", c.csb.retry.multiplier);
    v("csb.retry.maxBackoffTicks", c.csb.retry.maxBackoffTicks);
    v("csb.retry.maxAttempts", c.csb.retry.maxAttempts);
    v("csb.degradedFallback", c.csb.degradedFallback);
    v("csb.repromoteAfter", c.csb.repromoteAfter);
    v("l1.sizeBytes", c.l1.sizeBytes);
    v("l1.assoc", c.l1.assoc);
    v("l1.hitLatency", c.l1.hitLatency);
    v("l2.sizeBytes", c.l2.sizeBytes);
    v("l2.assoc", c.l2.assoc);
    v("l2.hitLatency", c.l2.hitLatency);
    v("fixedMissLatency", c.fixedMissLatency);
    v("routeMissesOverBus", c.routeMissesOverBus);
    v("memReadLatency", c.memReadLatency);
    v("tlbEntries", c.tlbEntries);
    v("tlbMissPenalty", c.tlbMissPenalty);
    v("enableNi", c.enableNi);
    v("ni.wireTicksPerByte", c.ni.wireTicksPerByte);
    v("ni.wireLatency", c.ni.wireLatency);
    v("ni.dmaStartupTicks", c.ni.dmaStartupTicks);
    v("ni.dmaBurstBytes", c.ni.dmaBurstBytes);
    v("ni.dmaMaxOutstanding", c.ni.dmaMaxOutstanding);
    v("ni.readLatency", c.ni.readLatency);
    v("ni.reliableWire", c.ni.reliableWire);
    v("ni.ackLatency", c.ni.ackLatency);
    v("ni.retransmitTimeout", c.ni.retransmitTimeout);
    v("ni.maxSendAttempts", c.ni.maxSendAttempts);
    v("ni.linkReset", c.ni.linkReset);
    v("ni.linkResetLatency", c.ni.linkResetLatency);
    v("ni.retry.initialBackoffTicks", c.ni.retry.initialBackoffTicks);
    v("ni.retry.multiplier", c.ni.retry.multiplier);
    v("ni.retry.maxBackoffTicks", c.ni.retry.maxBackoffTicks);
    v("ni.retry.maxAttempts", c.ni.retry.maxAttempts);
    v("deviceReadLatency", c.deviceReadLatency);
    v("deviceMaxAccept", c.deviceMaxAccept);
    v("faults.seed", c.faults.seed);
    v("faults.busWriteNackRate", c.faults.busWriteNackRate);
    v("faults.busReadNackRate", c.faults.busReadNackRate);
    v("faults.busErrorRate", c.faults.busErrorRate);
    v("faults.wireDropRate", c.faults.wireDropRate);
    v("faults.wireCorruptRate", c.faults.wireCorruptRate);
    v("faults.ackDropRate", c.faults.ackDropRate);
    v("faults.csbFlushDropRate", c.faults.csbFlushDropRate);
    v("faults.deviceHangRate", c.faults.deviceHangRate);
    v("faults.schedule", c.faults.schedule);
    v("watchdogTicks", c.watchdogTicks);
}

/** Write every knob of @p config to @p os as "name = value" lines. */
void printConfig(const SystemConfig &config, std::ostream &os);

} // namespace csb::core

#endif // CSB_CORE_SYSTEM_CONFIG_HH
