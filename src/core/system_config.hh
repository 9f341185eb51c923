/**
 * @file
 * Every knob of a simulated system in one structure.
 */

#ifndef CSB_CORE_SYSTEM_CONFIG_HH
#define CSB_CORE_SYSTEM_CONFIG_HH

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

    /**
     * Build the system for trace replay: every processor slice gets a
     * ReplayCore instead of an out-of-order cpu::Core (and no TLB
     * lookups happen -- recorded penalties are replayed instead).
     * Drive such a system with System::replay(), not System::run().
     */
    bool replayMode = false;

    /** Propagate lineBytes; validate everything. */
    void normalize();
};

} // namespace csb::core

#endif // CSB_CORE_SYSTEM_CONFIG_HH
