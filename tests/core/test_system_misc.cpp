/**
 * @file
 * System-level plumbing tests: address map, run semantics, stats
 * dumping, configuration validation, and system reuse.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/kernels.hh"
#include "core/system.hh"
#include "sim/logging.hh"

#include "../sim/mini_json.hh"
#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;
using isa::ir;

TEST(SystemMisc, AddressMapAttributes)
{
    using io::NiMap;
    using mem::PageAttr;
    for (bool csb : {true, false}) {
        for (bool ni : {false, true}) {
            SCOPED_TRACE(std::string(csb ? "csb on" : "csb off") +
                         (ni ? ", ni on" : ", ni off"));
            SystemConfig cfg;
            cfg.enableCsb = csb;
            cfg.enableNi = ni;
            cfg.normalize();
            System system(cfg);
            auto &pt = system.pageTable();
            const PageAttr burst = csb ? PageAttr::UncachedCombining
                                       : PageAttr::UncachedAccelerated;
            EXPECT_EQ(pt.attrOf(System::ramBase + 0x1234), PageAttr::Cached);

            const struct { Addr base; PageAttr attr; } regions[] = {
                {System::ioUncachedBase, PageAttr::Uncached},
                {System::ioAccelBase, PageAttr::UncachedAccelerated},
                {System::ioCsbBase, burst},
            };
            for (const auto &region : regions) {
                const Addr end = region.base + System::ioRegionSize;
                EXPECT_EQ(pt.attrOf(region.base), region.attr);
                EXPECT_EQ(pt.attrOf(end - 1), region.attr);
                EXPECT_EQ(pt.attrOf(end), PageAttr::Cached)
                    << "first byte past the region at 0x" << std::hex
                    << region.base;
            }

            // NI window: descriptor, doorbell and PIO pages, then the
            // unmapped last page.  All Cached when the NI is absent.
            const auto nic = [&](PageAttr attr) {
                return ni ? attr : PageAttr::Cached;
            };
            const Addr base = System::niBase;
            EXPECT_EQ(pt.attrOf(base + NiMap::descBase), nic(burst));
            EXPECT_EQ(pt.attrOf(base + NiMap::descBase + NiMap::descSize - 1),
                      nic(burst));
            EXPECT_EQ(pt.attrOf(base + NiMap::doorbell),
                      nic(PageAttr::Uncached));
            EXPECT_EQ(pt.attrOf(base + NiMap::pioBase), nic(burst));
            EXPECT_EQ(pt.attrOf(base + NiMap::pioBase + NiMap::pioSize - 1),
                      nic(burst));
            EXPECT_EQ(pt.attrOf(base + 0x3000), PageAttr::Cached);
            EXPECT_EQ(pt.attrOf(base + NiMap::windowSize), PageAttr::Cached);
        }
    }
}

TEST(SystemMisc, CsbDisabledDowngradesCombiningSpace)
{
    SystemConfig cfg;
    cfg.enableCsb = false;
    cfg.normalize();
    System system(cfg);
    EXPECT_EQ(system.pageTable().attrOf(System::ioCsbBase),
              mem::PageAttr::UncachedAccelerated);
    EXPECT_EQ(system.csb(), nullptr);
}

TEST(SystemMisc, RunTimesOutOnNonHaltingProgram)
{
    SystemConfig cfg;
    cfg.normalize();
    System system(cfg);
    isa::Program p;
    isa::Label forever = p.newLabel();
    p.bind(forever);
    p.jmp(forever);
    p.halt();
    p.finalize();
    EXPECT_THROW(system.run(p, 1, /*max_ticks=*/2000), FatalError);
}

TEST(SystemMisc, SystemIsReusableAcrossRuns)
{
    SystemConfig cfg;
    cfg.normalize();
    System system(cfg);
    isa::Program p = core::makeStoreKernel(System::ioUncachedBase, 64);
    system.run(p);
    std::size_t first = system.device().writeLog().size();
    system.core().clearMarks();
    system.run(p);
    EXPECT_EQ(system.device().writeLog().size(), 2 * first)
        << "a second run adds the same traffic again";
}

TEST(SystemMisc, StatsDumpCoversComponents)
{
    SystemConfig cfg;
    cfg.enableNi = true;
    cfg.normalize();
    System system(cfg);
    isa::Program p = core::makeCsbStoreKernel(System::ioCsbBase, 64, 64);
    system.run(p);
    std::ostringstream os;
    system.dumpStatsJson(os);
    const mini_json::Value doc = mini_json::parse(os.str());
    const std::vector<std::vector<std::string>> paths = {
        {"cpu", "instsRetired"}, {"bus", "numWrites"},
        {"csb", "flushesSucceeded"}, {"ubuf", "storesPushed"},
        {"tlb", "hits"}, {"caches", "l1", "hits"},
        {"dev", "bytesReceived"}, {"ni", "pioMessages"}};
    for (const std::vector<std::string> &path : paths) {
        const mini_json::Value *node = &doc;
        for (const std::string &key : path) {
            ASSERT_TRUE(node->has(key)) << key << " of " << path.back();
            node = &node->at(key);
        }
        EXPECT_TRUE(node->has("value")) << path.back();
    }
}

TEST(SystemMisc, InvalidConfigsAreFatal)
{
    {
        SystemConfig cfg;
        cfg.numCores = 0;
        EXPECT_THROW(cfg.normalize(), FatalError);
    }
    {
        SystemConfig cfg;
        cfg.bus.widthBytes = 12; // not a power of two
        EXPECT_THROW(cfg.normalize(), FatalError);
    }
    {
        SystemConfig cfg;
        cfg.lineBytes = 32;
        cfg.ubuf.combineBytes = 64; // combine block > line
        EXPECT_THROW(cfg.normalize(), FatalError);
    }
    {
        SystemConfig cfg;
        cfg.csb.numLineBuffers = 9;
        EXPECT_THROW(cfg.normalize(), FatalError);
    }
}

TEST(SystemMisc, InvalidNiParamsAreFatalWhenTheNiIsEnabled)
{
    // Each of these once hung a DMA send or aborted mid-run.  A
    // 32 B line caps bus bursts below the default 64 B DMA burst.
    const std::vector<std::pair<const char *, void (*)(SystemConfig &)>>
        cases = {
            {"ni.dmaMaxOutstanding",
             [](auto &c) { c.ni.dmaMaxOutstanding = 0; }},
            {"ni.dmaBurstBytes", [](auto &c) { c.ni.dmaBurstBytes = 0; }},
            {"ni.dmaBurstBytes", [](auto &c) { c.ni.dmaBurstBytes = 48; }},
            {"ni.dmaBurstBytes", [](auto &c) { c.ni.dmaBurstBytes = 128; }},
            {"ni.dmaBurstBytes", [](auto &c) { c.lineBytes = 32; }},
            {"bus.maxBurstBytes", [](auto &c) { c.lineBytes = 32; }},
            {"ni.wireTicksPerByte",
             [](auto &c) { c.ni.wireTicksPerByte = -1; }},
            {"ni.wireTicksPerByte",
             [](auto &c) {
                 c.ni.wireTicksPerByte =
                     std::numeric_limits<double>::infinity();
             }},
            {"ni.maxSendAttempts", [](auto &c) { c.ni.maxSendAttempts = 0; }},
        };
    for (const auto &[knob, spoil] : cases) {
        SystemConfig cfg;
        cfg.enableNi = true;
        spoil(cfg);
        try {
            cfg.normalize();
            ADD_FAILURE() << knob << ": normalize() accepted it";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(knob), std::string::npos)
                << err.what();
        }
        // Without an NI the same values are never used.
        cfg.enableNi = false;
        EXPECT_NO_THROW(cfg.normalize()) << knob;
    }
}

TEST(SystemMisc, MissesRoutedOverBusShareIt)
{
    // With routeMissesOverBus, a cache miss creates visible read
    // traffic on the system bus.
    SystemConfig cfg;
    cfg.routeMissesOverBus = true;
    cfg.normalize();
    System system(cfg);
    isa::Program p;
    p.li(ir(1), 0x8000);
    p.ldd(ir(2), ir(1), 0);
    p.halt();
    p.finalize();
    trace_test::BusTxnCapture capture;
    system.run(p);
    EXPECT_GE(system.bus().numReads.value(), 1.0);
    const auto &records = capture.txns();
    auto line_reads = std::count_if(
        records.begin(), records.end(), [](const trace_test::BusTxn &rec) {
            return rec.kind == bus::TxnKind::ReadReq && rec.size == 64;
        });
    EXPECT_GE(line_reads, 1);
}

TEST(SystemMisc, MarkTimesAreMonotonic)
{
    SystemConfig cfg;
    cfg.normalize();
    System system(cfg);
    isa::Program p;
    for (int i = 0; i < 5; ++i) {
        p.mark(i);
        p.li(ir(1), i);
    }
    p.halt();
    p.finalize();
    system.run(p);
    Tick previous = 0;
    for (int i = 0; i < 5; ++i) {
        Tick t = system.core().markTime(i);
        ASSERT_NE(t, maxTick);
        EXPECT_GE(t, previous);
        previous = t;
    }
    EXPECT_EQ(system.core().markTime(99), maxTick);
}

} // namespace
