/**
 * @file
 * The top-level simulated system: core + caches + TLB + uncached
 * buffer + CSB + system bus + main memory + I/O devices, wired
 * according to a SystemConfig.  This is the primary entry point of
 * the csbsim public API.
 */

#ifndef CSB_CORE_SYSTEM_HH
#define CSB_CORE_SYSTEM_HH

#include <memory>
#include <ostream>

#include "bus/system_bus.hh"
#include "cpu/context_scheduler.hh"
#include "cpu/core.hh"
#include "io/burst_device.hh"
#include "io/network_interface.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "mem/csb.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "mem/physical_memory.hh"
#include "mem/uncached_buffer.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/trace_recorder.hh"
#include "system_config.hh"

namespace csb::core {

/**
 * A complete single-node system.
 *
 * Fixed physical address map:
 *   [0x0000'0000, 0x1000'0000)  cached RAM
 *   [0x2000'0000, +1 MiB)       device window, plain uncached pages
 *   [0x2100'0000, +1 MiB)       device window, uncached-accelerated
 *   [0x2200'0000, +1 MiB)       device window, uncached-combining
 *   [0x3000'0000, +16 KiB)      network interface (when enabled),
 *                               PIO/descriptor pages combining,
 *                               doorbell page uncached
 * Without a CSB the combining pages are uncached-accelerated.
 */
class System : public sim::stats::StatGroup
{
  public:
    static constexpr Addr ramBase = 0x0000'0000;
    static constexpr Addr ramSize = 0x1000'0000;
    static constexpr Addr ioUncachedBase = 0x2000'0000;
    static constexpr Addr ioAccelBase = 0x2100'0000;
    static constexpr Addr ioCsbBase = 0x2200'0000;
    static constexpr Addr ioRegionSize = 0x0010'0000;
    static constexpr Addr niBase = 0x3000'0000;

    explicit System(SystemConfig config);
    ~System() override;

    /** Set the I/O page attributes of the map above for @p config. */
    static void mapIoPages(mem::PageTable &page_table,
                           const SystemConfig &config);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Load @p program and run until it halts and all buffers, the
     * bus, and (when enabled) the NI have drained.
     * @return the tick at which everything went quiescent
     */
    Tick run(const isa::Program &program, ProcId pid = 1,
             Tick max_ticks = 50'000'000);

    /** @return true when all queues/buses/devices are idle. */
    bool quiescent() const;

    /**
     * Record every data reference of every core into @p recorder
     * (cores stamp their own index); null detaches.  Recording is
     * passive and never perturbs timing.
     */
    void attachTraceRecorder(sim::TraceRecorder *recorder);

    /**
     * Serialize the memory-system stats subtree (bus, mem, dev, NI,
     * faults, per-core caches/ubuf/csb) as a JSON document, without
     * the tlb and cpu groups.  hostbench's nic_messages compares a
     * restored System's memory stats with the saved one's through it.
     */
    void dumpMemStatsJson(std::ostream &os, int indent = 2) const;

    /**
     * Serialize the complete system state (tick, memory, arch state,
     * caches, TLB, CSB accumulator, bus, devices, stats) to the CSBC
     * format specified in docs/CHECKPOINT.md.  Only legal at a
     * quiescent boundary with every core halted and drained.
     */
    void saveCheckpoint(sim::CheckpointWriter &cw) const;

    /** saveCheckpoint() to the file at @p path. */
    void saveCheckpointFile(const std::string &path) const;

    /**
     * Restore a checkpoint into this freshly built system.  The
     * configuration fingerprint must match the saving system's, and
     * nothing may have run yet (curTick == 0).
     */
    void restoreCheckpoint(sim::CheckpointReader &cr);

    /** restoreCheckpoint() from the file at @p path. */
    void restoreCheckpointFile(const std::string &path);
    // Statistics of every component dump as JSON via the inherited
    // StatGroup::dumpStatsJson(std::ostream&); setting
    // CSBSIM_STATS_JSON=<path> writes the tree at destruction (see
    // docs/OBSERVABILITY.md).

    // Component access.  The index selects the processor of an SMP
    // configuration; the index-free forms are the core-0 shorthands
    // used by single-processor experiments.
    sim::Simulator &simulator() { return sim_; }
    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }
    cpu::Core &core(unsigned cpu = 0) { return *cores_.at(cpu).core; }
    mem::UncachedBuffer &uncachedBuffer(unsigned cpu = 0)
    {
        return *cores_.at(cpu).ubuf;
    }
    mem::ConditionalStoreBuffer *csb(unsigned cpu = 0)
    {
        return cores_.at(cpu).csb.get();
    }
    mem::CacheHierarchy &caches(unsigned cpu = 0)
    {
        return *cores_.at(cpu).caches;
    }
    mem::Tlb &tlb(unsigned cpu = 0) { return *cores_.at(cpu).tlb; }
    bus::SystemBus &bus() { return *bus_; }
    mem::PhysicalMemory &memory() { return physMem_; }
    mem::PageTable &pageTable() { return pageTable_; }
    io::BurstDevice &device() { return *device_; }
    io::NetworkInterface *ni() { return ni_.get(); }
    /** The fault injector, or null when the plan is all-zero. */
    sim::FaultInjector *faults() { return injector_.get(); }

    const SystemConfig &config() const { return config_; }

    /**
     * The section 4.3.1 window of the bus writes at or above
     * ioUncachedBase, in bus cycles (BusWindow::cycles()).
     */
    std::uint64_t ioWriteBusCycles() const;

  private:
    /** Per-processor private components. */
    struct CoreSlice
    {
        std::unique_ptr<mem::Tlb> tlb;
        std::unique_ptr<mem::CacheHierarchy> caches;
        std::unique_ptr<mem::UncachedBuffer> ubuf;
        std::unique_ptr<mem::ConditionalStoreBuffer> csb;
        std::unique_ptr<cpu::Core> core;
        /** Bus master for cache-miss line fetches (optional). */
        MasterId missMaster = 0;
    };

    void buildCoreSlice(unsigned cpu);

    /**
     * Fetch a line over the miss port @p master for a cache miss and
     * call @p done when it arrives; a busy port retries next tick, a
     * NACK after backoff.
     */
    void fetchLine(MasterId master, Addr line_addr,
                   std::function<void(Tick)> done, unsigned try_no);

    /** Spill a dirty line over the miss port; retries like fetchLine. */
    void writebackLine(MasterId master, Addr line_addr, unsigned try_no);

    SystemConfig config_;
    sim::Simulator sim_;
    mem::PhysicalMemory physMem_;
    mem::PageTable pageTable_;

    std::unique_ptr<sim::FaultInjector> injector_;
    std::unique_ptr<bus::SystemBus> bus_;
    /** Shared coherence policy; null when coherence.kind is None. */
    std::unique_ptr<mem::CoherencePolicy> cohPolicy_;
    std::unique_ptr<mem::MainMemory> mainMemory_;
    std::unique_ptr<io::BurstDevice> device_;
    std::unique_ptr<io::NetworkInterface> ni_;
    std::vector<CoreSlice> cores_;
};

} // namespace csb::core

#endif // CSB_CORE_SYSTEM_HH
