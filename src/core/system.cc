#include "system.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <utility>

#include "sim/checkpoint.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace csb::core {

void
SystemConfig::normalize()
{
    l1.lineBytes = lineBytes;
    l2.lineBytes = lineBytes;
    csb.lineBytes = lineBytes;
    bus.maxBurstBytes = std::max(lineBytes, bus.widthBytes);

    if (numCores == 0)
        csb_fatal("a system needs at least one core");
    bus.validate();
    core.validate();
    ubuf.validate();
    if (enableCsb)
        csb.validate();
    l1.validate();
    l2.validate();
    coherence.validate();
    if (enableNi) {
        ni.validate();
        if (ni.dmaBurstBytes > bus.maxBurstBytes) {
            csb_fatal("ni.dmaBurstBytes (", ni.dmaBurstBytes,
                      ") exceeds bus.maxBurstBytes (", bus.maxBurstBytes,
                      ", the larger of lineBytes and bus.widthBytes)");
        }
    }
    if (ubuf.combineBytes > lineBytes) {
        csb_fatal("uncached buffer combine block (", ubuf.combineBytes,
                  ") exceeds the cache line (", lineBytes, ")");
    }
}

System::System(SystemConfig config)
    : sim::stats::StatGroup("system"), config_(std::move(config))
{
    config_.normalize();

    if (config_.faults.enabled()) {
        injector_ = std::make_unique<sim::FaultInjector>(config_.faults,
                                                         "faults", this);
    }
    if (config_.watchdogTicks != 0)
        sim_.setWatchdog(config_.watchdogTicks);

    bus_ = std::make_unique<bus::SystemBus>(sim_, config_.bus, "bus", this,
                                            ioUncachedBase);
    if (injector_)
        bus_->setFaultInjector(injector_.get());

    // One stateless policy instance serves every hierarchy.
    cohPolicy_ = mem::makeCoherencePolicy(config_.coherence.kind);

    mainMemory_ = std::make_unique<mem::MainMemory>(
        physMem_, config_.memReadLatency, "mem", this);
    bus_->addTarget(ramBase, ramSize, mainMemory_.get());

    device_ = std::make_unique<io::BurstDevice>(
        config_.deviceReadLatency, config_.deviceMaxAccept, "dev", this);
    if (injector_)
        device_->setFaultInjector(injector_.get());
    bus_->addTarget(ioUncachedBase,
                    (ioCsbBase + ioRegionSize) - ioUncachedBase,
                    device_.get());

    if (config_.enableNi) {
        ni_ = std::make_unique<io::NetworkInterface>(
            sim_, *bus_, niBase, config_.ni, "ni", this);
        bus_->addTarget(niBase, io::NiMap::windowSize, ni_.get());
        if (injector_)
            ni_->setFaultInjector(injector_.get());
    }

    mapIoPages(pageTable_, config_);

    cores_.resize(config_.numCores);
    for (unsigned cpu = 0; cpu < config_.numCores; ++cpu)
        buildCoreSlice(cpu);
}

void
System::mapIoPages(mem::PageTable &page_table, const SystemConfig &config)
{
    // Section 3.1: combining behaviour is encoded in page attributes.
    const mem::PageAttr burst_attr =
        config.enableCsb ? mem::PageAttr::UncachedCombining
                         : mem::PageAttr::UncachedAccelerated;
    page_table.setAttr(ioUncachedBase, ioRegionSize, mem::PageAttr::Uncached);
    page_table.setAttr(ioAccelBase, ioRegionSize,
                       mem::PageAttr::UncachedAccelerated);
    page_table.setAttr(ioCsbBase, ioRegionSize, burst_attr);
    if (config.enableNi) {
        page_table.setAttr(niBase + io::NiMap::descBase, io::NiMap::descSize,
                           burst_attr);
        page_table.setAttr(niBase + io::NiMap::doorbell,
                           mem::PageTable::pageSize, mem::PageAttr::Uncached);
        page_table.setAttr(niBase + io::NiMap::pioBase, io::NiMap::pioSize,
                           burst_attr);
    }
}

namespace {

/** Backoff for NACKed miss-port transactions (only under faults). */
const bus::RetryPolicy missRetry{};

} // namespace

void
System::fetchLine(MasterId master, Addr line_addr,
                  std::function<void(Tick)> done, unsigned try_no)
{
    // Retry until the miss port is free (overlapping misses serialize,
    // as with a single MSHR); a NACKed fetch reissues after backoff.
    if (!bus_->masterIdle(master)) {
        sim_.eventQueue().scheduleFunc(
            sim_.curTick() + 1,
            [this, line_addr, done = std::move(done), master,
             try_no]() mutable {
                fetchLine(master, line_addr, std::move(done), try_no);
            });
        return;
    }
    bus_->requestRead(
        master, line_addr, config_.lineBytes, /*strongly_ordered=*/false,
        [this, line_addr, done = std::move(done), master,
         try_no](Tick when, bus::BusStatus status,
                 const std::vector<std::uint8_t> &) mutable {
            if (status == bus::BusStatus::Ok) {
                done(when);
                return;
            }
            if (status == bus::BusStatus::Error) {
                csb_fatal("bus error on cache line fetch at 0x", std::hex,
                          line_addr);
            }
            if (try_no + 1 >= missRetry.maxAttempts) {
                csb_fatal("cache line fetch retries exhausted at 0x",
                          std::hex, line_addr);
            }
            sim_.eventQueue().scheduleFunc(
                when + missRetry.backoffFor(try_no + 1),
                [this, line_addr, done = std::move(done), master,
                 try_no]() mutable {
                    fetchLine(master, line_addr, std::move(done),
                              try_no + 1);
                });
        });
}

void
System::writebackLine(MasterId master, Addr line_addr, unsigned try_no)
{
    if (!bus_->masterIdle(master)) {
        sim_.eventQueue().scheduleFunc(
            sim_.curTick() + 1, [this, master, line_addr, try_no] {
                writebackLine(master, line_addr, try_no);
            });
        return;
    }
    // Capture the payload fresh on EVERY attempt, not once at
    // eviction: stores may commit to the image while the spill waits
    // for the port or retries after a NACK, and a stale capture would
    // clobber them at completion.  The payload is flagged as a
    // snapshot so the memory counts it without re-applying it (see
    // BusTransaction::snapshotPayload).
    std::vector<std::uint8_t> data(config_.lineBytes);
    physMem_.read(line_addr, data.data(), data.size());
    bus_->requestWrite(
        master, line_addr, std::move(data), /*strongly_ordered=*/false,
        /*on_complete=*/
        [this, line_addr, master, try_no](Tick when, bus::BusStatus status,
                                          std::vector<std::uint8_t> &) {
            if (status == bus::BusStatus::Ok)
                return;
            if (status == bus::BusStatus::Error) {
                csb_fatal("bus error on cache writeback at 0x", std::hex,
                          line_addr);
            }
            if (try_no + 1 >= missRetry.maxAttempts) {
                csb_fatal("cache writeback retries exhausted at 0x",
                          std::hex, line_addr);
            }
            sim_.eventQueue().scheduleFunc(
                when + missRetry.backoffFor(try_no + 1),
                [this, master, line_addr, try_no] {
                    writebackLine(master, line_addr, try_no + 1);
                });
        },
        /*on_start=*/{}, /*snapshot_payload=*/true);
}

void
System::buildCoreSlice(unsigned cpu)
{
    CoreSlice &slice = cores_[cpu];
    std::string suffix =
        config_.numCores > 1 ? std::to_string(cpu) : std::string{};

    slice.tlb = std::make_unique<mem::Tlb>(pageTable_, config_.tlbEntries,
                                           config_.tlbMissPenalty,
                                           "tlb" + suffix, this);

    slice.caches = std::make_unique<mem::CacheHierarchy>(
        config_.l1, config_.l2, config_.fixedMissLatency,
        "caches" + suffix, this);
    slice.caches->deferredCall = [this](Tick when,
                                        std::function<void()> fn) {
        sim_.eventQueue().scheduleFunc(when, std::move(fn));
    };

    if (cohPolicy_) {
        mem::CacheHierarchy *caches = slice.caches.get();
        caches->setCoherence(
            cohPolicy_.get(), config_.coherence,
            [this, caches](Addr line_addr, bus::SnoopKind kind) {
                return bus_->snoopBroadcast(caches, line_addr, kind);
            });
        bus_->registerSnooper(caches);
    }

    if (config_.routeMissesOverBus) {
        slice.missMaster =
            bus_->registerMaster("cachemiss" + suffix + ".port");
        MasterId miss_master = slice.missMaster;
        slice.caches->setLineFetch(
            [this, miss_master](Addr line_addr,
                                std::function<void(Tick)> done) {
                fetchLine(miss_master, line_addr, std::move(done), 0);
            });
        slice.caches->setLineWriteback(
            [this, miss_master](Addr line_addr) {
                writebackLine(miss_master, line_addr, 0);
            });
    }

    slice.ubuf = std::make_unique<mem::UncachedBuffer>(
        sim_, *bus_, config_.ubuf, "ubuf" + suffix, this);

    if (config_.enableCsb) {
        slice.csb = std::make_unique<mem::ConditionalStoreBuffer>(
            sim_, *bus_, config_.csb, "csb" + suffix, this);
        if (injector_)
            slice.csb->setFaultInjector(injector_.get());
    }

    cpu::CoreMemPorts ports;
    ports.tlb = slice.tlb.get();
    ports.caches = slice.caches.get();
    ports.ubuf = slice.ubuf.get();
    ports.csb = slice.csb.get();
    ports.memory = &physMem_;
    slice.core = std::make_unique<cpu::Core>(sim_, config_.core, ports,
                                             "cpu" + suffix, this);
}

System::~System()
{
    // Machine-readable stats export: when CSBSIM_STATS_JSON names a
    // file, serialize the full stats tree there at teardown.  Each
    // System overwrites the file, so a process that builds several
    // systems (the bench sweeps) leaves the last configuration's
    // tree -- exactly one valid JSON document either way.  Concurrent
    // sweep workers tear Systems down in parallel; the mutex keeps
    // each rewrite atomic (some System's complete tree wins).
    if (const char *path = std::getenv("CSBSIM_STATS_JSON")) {
        static std::mutex export_mutex;
        std::lock_guard<std::mutex> lock(export_mutex);
        std::ofstream os(path);
        if (os)
            dumpStatsJson(os);
    }
}

bool
System::quiescent() const
{
    for (const CoreSlice &slice : cores_) {
        if (!slice.ubuf->empty())
            return false;
        if (slice.csb && !slice.csb->drained())
            return false;
    }
    if (!bus_->quiescent())
        return false;
    if (ni_ && !ni_->idle())
        return false;
    return true;
}

Tick
System::run(const isa::Program &program, ProcId pid, Tick max_ticks)
{
    cores_.at(0).core->loadProgram(&program, pid);
    Tick end = sim_.run(
        [this] {
            for (const CoreSlice &slice : cores_) {
                if (!slice.core->halted())
                    return false;
            }
            return quiescent();
        },
        max_ticks);
    if (!cores_.at(0).core->halted()) {
        csb_fatal("program did not halt within ", max_ticks,
                  " ticks (deadlock or runaway loop?)");
    }
    return end;
}

void
System::attachTraceRecorder(sim::TraceRecorder *recorder)
{
    for (unsigned cpu = 0; cpu < cores_.size(); ++cpu) {
        cores_[cpu].core->setTraceRecorder(
            recorder, static_cast<std::uint8_t>(cpu));
    }
}

void
System::dumpMemStatsJson(std::ostream &os, int indent) const
{
    sim::JsonWriter jw(os, indent);
    jw.beginObject();
    jw.key("bus");
    bus_->dumpJson(jw);
    jw.key("mem");
    mainMemory_->dumpJson(jw);
    jw.key("dev");
    device_->dumpJson(jw);
    if (ni_) {
        jw.key("ni");
        ni_->dumpJson(jw);
    }
    if (injector_) {
        jw.key("faults");
        injector_->dumpJson(jw);
    }
    for (unsigned cpu = 0; cpu < cores_.size(); ++cpu) {
        const CoreSlice &slice = cores_[cpu];
        std::string suffix =
            cores_.size() > 1 ? std::to_string(cpu) : std::string{};
        jw.key("caches" + suffix);
        slice.caches->dumpJson(jw);
        jw.key("ubuf" + suffix);
        slice.ubuf->dumpJson(jw);
        if (slice.csb) {
            jw.key("csb" + suffix);
            slice.csb->dumpJson(jw);
        }
    }
    jw.endObject();
    os << "\n";
}

namespace {

/** A knob's value as the checkpoint fingerprint stores it. */
template <class T>
std::uint64_t
knobBits(const T &value)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<std::uint64_t>(value);
    else if constexpr (std::is_same_v<T, std::vector<sim::FaultScheduleEntry>>)
        return sim::FaultPlan{.schedule = value}.scheduleFingerprint();
    else
        return static_cast<std::uint64_t>(value); // bools, enums, ints
}

/** Fingerprint @p bits shown as a value of knob type T. */
template <class T>
std::string
knobText(std::uint64_t bits)
{
    std::ostringstream os;
    if constexpr (std::is_same_v<T, bool>)
        os << (bits != 0 ? "true" : "false");
    else if constexpr (std::is_same_v<T, double>)
        os << std::bit_cast<double>(bits);
    else
        os << bits;
    return os.str();
}

std::uint64_t
knobCount()
{
    std::uint64_t n = 0;
    visitKnobs(SystemConfig{}, [&n](const char *, const auto &) { ++n; });
    return n;
}

} // namespace

void
printConfig(const SystemConfig &config, std::ostream &os)
{
    visitKnobs(config, [&os]<class T>(const char *name, const T &value) {
        os << name << " = ";
        if constexpr (std::is_same_v<T, std::vector<sim::FaultScheduleEntry>>)
            os << sim::faultScheduleSpec(value) << "\n";
        else
            os << knobText<T>(knobBits(value)) << "\n";
    });
}

void
System::saveCheckpoint(sim::CheckpointWriter &cw) const
{
    csb_assert(quiescent(), "checkpoint requires a quiescent system "
                            "(buffers, bus and devices drained)");
    for (const CoreSlice &slice : cores_) {
        csb_assert(slice.core->halted(),
                   "checkpoint requires every core halted");
    }

    cw.beginSection("config");
    cw.putU64(knobCount());
    visitKnobs(config_, [&cw](const char *name, const auto &value) {
        cw.putStr(name);
        cw.putU64(knobBits(value));
    });

    cw.beginSection("sim");
    cw.putU64(sim_.curTick());

    cw.beginSection("memory");
    physMem_.checkpointSave(cw);

    for (unsigned cpu = 0; cpu < cores_.size(); ++cpu) {
        const CoreSlice &slice = cores_[cpu];
        std::string suffix =
            cores_.size() > 1 ? std::to_string(cpu) : std::string{};
        cw.beginSection("cpu" + suffix);
        slice.core->checkpointSave(cw);
        cw.beginSection("tlb" + suffix);
        slice.tlb->checkpointSave(cw);
        cw.beginSection("caches" + suffix);
        slice.caches->checkpointSave(cw);
        if (slice.csb) {
            cw.beginSection("csb" + suffix);
            slice.csb->checkpointSave(cw);
        }
        // The uncached buffer is empty at any quiescent boundary
        // (quiescent() requires it); it has no section.
    }

    cw.beginSection("bus");
    bus_->checkpointSave(cw);

    cw.beginSection("dev");
    device_->checkpointSave(cw);

    if (ni_) {
        cw.beginSection("ni");
        ni_->checkpointSave(cw);
    }

    if (injector_) {
        cw.beginSection("faults");
        injector_->checkpointSave(cw);
    }

    cw.beginSection("stats");
    checkpointSaveStats(cw);
}

void
System::saveCheckpointFile(const std::string &path) const
{
    sim::CheckpointWriter cw;
    saveCheckpoint(cw);
    cw.writeFile(path);
}

void
System::restoreCheckpoint(sim::CheckpointReader &cr)
{
    csb_assert(sim_.curTick() == 0,
               "checkpoint restore needs a freshly built system");

    cr.openSection("config");
    const std::uint64_t knobs = cr.getU64();
    if (knobs != knobCount())
        csb_fatal("checkpoint config has ", knobs, " knobs, expected ",
                  knobCount(), " -- incompatible writer");
    visitKnobs(config_, [&cr]<class T>(const char *name, const T &value) {
        std::string_view saved_name = cr.getStr();
        std::uint64_t saved = cr.getU64();
        if (saved_name != name)
            csb_fatal("checkpoint config knob '", saved_name, "' where '",
                      name, "' was expected");
        if (saved != knobBits(value))
            csb_fatal("checkpoint was taken with ", name, "=",
                      knobText<T>(saved), ", this system has ", name, "=",
                      knobText<T>(knobBits(value)));
    });
    cr.closeSection();

    cr.openSection("sim");
    Tick when = cr.getU64();
    cr.closeSection();
    sim_.restoreTick(when);

    cr.openSection("memory");
    physMem_.checkpointRestore(cr);
    cr.closeSection();

    for (unsigned cpu = 0; cpu < cores_.size(); ++cpu) {
        CoreSlice &slice = cores_[cpu];
        std::string suffix =
            cores_.size() > 1 ? std::to_string(cpu) : std::string{};
        cr.openSection("cpu" + suffix);
        slice.core->checkpointRestore(cr);
        cr.closeSection();
        cr.openSection("tlb" + suffix);
        slice.tlb->checkpointRestore(cr);
        cr.closeSection();
        cr.openSection("caches" + suffix);
        slice.caches->checkpointRestore(cr);
        cr.closeSection();
        if (slice.csb) {
            cr.openSection("csb" + suffix);
            slice.csb->checkpointRestore(cr);
            cr.closeSection();
        }
    }

    cr.openSection("bus");
    bus_->checkpointRestore(cr);
    cr.closeSection();

    cr.openSection("dev");
    device_->checkpointRestore(cr);
    cr.closeSection();

    if (ni_) {
        cr.openSection("ni");
        ni_->checkpointRestore(cr);
        cr.closeSection();
    }

    if (injector_) {
        cr.openSection("faults");
        injector_->checkpointRestore(cr);
        cr.closeSection();
    }

    cr.openSection("stats");
    checkpointRestoreStats(cr);
    cr.closeSection();
}

void
System::restoreCheckpointFile(const std::string &path)
{
    sim::CheckpointReader cr = sim::CheckpointReader::loadFile(path);
    restoreCheckpoint(cr);
}

std::uint64_t
System::ioWriteBusCycles() const
{
    return bus_->monitor().ioWrites().cycles();
}

} // namespace csb::core
