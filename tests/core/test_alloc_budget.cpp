/**
 * @file
 * Heap-allocation budgets of the uncached store path and of building
 * a System.
 *
 * This binary replaces the global operator new/delete with counting
 * versions, then runs fixed store kernels -- NoCombine stores through
 * the uncached buffer and CSB line bursts -- on the Fig 3(e) bus (8 B
 * multiplexed, ratio 6, 64 B line).  In steady state the path from a
 * retired store through the buffer, the bus and the device must make
 * at most one heap allocation per bus transaction: the payload, which
 * the device's write log keeps.  Event closures, master callbacks,
 * buffer entries and trace calls with every channel off must allocate
 * nothing.
 *
 * Steady state means a warm System: the kernel runs once, the logs it
 * fills (device writes, core marks) are cleared, keeping their
 * capacity, and the allocations of a second System::run of the same
 * kernel are counted.  The first run also pays one-off
 * costs -- the event pool filling, the event heap and the logs growing
 * -- which would swamp a point with only four bus transactions.
 *
 * Building and tearing down a System has a budget too: every Figs 3-5
 * grid point and every litmus spec builds a fresh one, so its
 * allocations are paid per point.  Registering a stat must allocate
 * nothing: stats borrow their literal names and groups link them in
 * place.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>

#include "core/experiments.hh"
#include "core/kernels.hh"
#include "core/system.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace {

/** Heap allocations, and the bytes they asked for, made while
 *  counting is on. */
std::uint64_t allocations = 0;
std::uint64_t allocatedBytes = 0;
bool counting = false;

void *
countedAlloc(std::size_t size, std::size_t align = 0)
{
    if (counting) {
        ++allocations;
        allocatedBytes += size;
    }
    if (size == 0)
        size = 1;
    if (align == 0)
        return std::malloc(size);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void *
countedNew(std::size_t size, std::size_t align = 0)
{
    void *p = countedAlloc(size, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

// Every replaceable form, so no allocation bypasses the counter and
// every block is freed by the allocator that made it (the sanitizer
// runtimes check that pairing).
void *operator new(std::size_t n) { return countedNew(n); }
void *operator new[](std::size_t n) { return countedNew(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedNew(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedNew(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using namespace csb;
using core::Scheme;

struct RunCount
{
    std::uint64_t allocations = 0;
    std::uint64_t txns = 0;
};

/** The Fig 3(e) bus: 8 B multiplexed, ratio 6, 64 B lines. */
core::BandwidthSetup
fig3eSetup()
{
    core::BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = 6;
    setup.lineBytes = 64;
    return setup;
}

/** Run one Fig 3(e) store point twice; count the warm second run. */
RunCount
countStorePoint(Scheme scheme, unsigned transfer_bytes)
{
    const core::BandwidthSetup setup = fig3eSetup();
    core::System system(core::bandwidthConfig(setup, scheme));
    isa::Program program =
        scheme == Scheme::Csb
            ? core::makeCsbStoreKernel(core::System::ioCsbBase,
                                       transfer_bytes, setup.lineBytes)
            : core::makeStoreKernel(core::System::ioUncachedBase,
                                    transfer_bytes);

    system.run(program);
    system.device().clearLog();
    system.core().clearMarks();
    const double txns_before =
        system.bus().numWrites.value() + system.bus().numReads.value();

    allocations = 0;
    counting = true;
    system.run(program);
    counting = false;

    RunCount count;
    count.allocations = allocations;
    count.txns = static_cast<std::uint64_t>(system.bus().numWrites.value() +
                                            system.bus().numReads.value() -
                                            txns_before);
    return count;
}

class AllocBudget
    : public ::testing::TestWithParam<std::tuple<Scheme, unsigned>>
{};

TEST_P(AllocBudget, AtMostOneAllocationPerBusTransaction)
{
    auto [scheme, bytes] = GetParam();
    RunCount count = countStorePoint(scheme, bytes);
    ASSERT_GT(count.txns, 0u);
    EXPECT_LE(count.allocations, count.txns)
        << core::schemeName(scheme) << " " << bytes << " B: "
        << count.allocations << " allocations for " << count.txns
        << " bus transactions ("
        << static_cast<double>(count.allocations) /
               static_cast<double>(count.txns)
        << " per transaction)";
}

INSTANTIATE_TEST_SUITE_P(
    Fig3e, AllocBudget,
    ::testing::Combine(::testing::Values(Scheme::NoCombine, Scheme::Csb),
                       ::testing::Values(256u, 4096u)),
    [](const auto &info) {
        return (std::get<0>(info.param) == Scheme::Csb ? std::string("Csb")
                                                        : "NoCombine") +
               std::to_string(std::get<1>(info.param));
    });

struct BuildCount
{
    std::uint64_t allocations = 0;
    std::uint64_t bytes = 0;
};

/**
 * Allocations of building and tearing down one System, after a first
 * build has paid the process-wide one-off costs.
 */
BuildCount
countBuildAndTeardown(const core::SystemConfig &config)
{
    { core::System warm(config); }
    allocations = 0;
    allocatedBytes = 0;
    counting = true;
    { core::System system(config); }
    counting = false;
    return {allocations, allocatedBytes};
}

std::uint64_t
fig3eBuildAllocations(Scheme scheme)
{
    return countBuildAndTeardown(core::bandwidthConfig(fig3eSetup(), scheme))
        .allocations;
}

TEST(BuildBudget, Fig3eSystemBuildAndTeardown)
{
    // The budgets are the measured counts: hardware state and one
    // owner per component, nothing per stat or stat group.
    EXPECT_LE(fig3eBuildAllocations(Scheme::Csb), 31u);
    EXPECT_LE(fig3eBuildAllocations(Scheme::NoCombine), 26u);
}

/** The System a 4-context SMP litmus spec under Csb/MESI builds. */
core::SystemConfig
litmusSmpConfig()
{
    core::SystemConfig cfg;
    cfg.numCores = 4;
    cfg.enableCsb = true;
    cfg.ubuf.combineBytes = cfg.lineBytes;
    cfg.ubuf.policy = mem::CombinePolicy::SequentialOnly;
    cfg.csb.partialFlush = true;
    cfg.csb.numLineBuffers = 2;
    cfg.coherence.kind = mem::CoherenceKind::Mesi;
    cfg.watchdogTicks = 200'000;
    cfg.normalize();
    return cfg;
}

TEST(BuildBudget, LitmusSmpSystemBuildAndTeardownBytes)
{
    // Cache line storage grows with the sets a run fills, so a build
    // pays only each level's per-set slot index (8 KiB for the
    // default L2).  Measured: 134 304 B in 90 allocations; with a
    // line array per level it was 941 968 B in 98.
    BuildCount count = countBuildAndTeardown(litmusSmpConfig());
    EXPECT_LE(count.bytes, 140'000u)
        << count.allocations << " allocations";
}

TEST(BuildBudget, RegisteringAStatAllocatesNothing)
{
    sim::stats::StatGroup group("g");
    sim::stats::Scalar first(&group, "first", "registered before counting");
    allocations = 0;
    counting = true;
    sim::stats::Scalar second(&group, "second", "registered while counting");
    counting = false;
    EXPECT_EQ(allocations, 0u);
    std::ostringstream os;
    group.dumpStatsJson(os);
    EXPECT_NE(os.str().find("\"second\""), std::string::npos);
}

TEST(AllocCounter, FirstCallbackCostsAtMostTwoAllocations)
{
    // On a fresh queue a callback costs its pooled callback and a
    // heap slot, nothing more.
    sim::EventQueue q;
    allocations = 0;
    counting = true;
    q.scheduleFunc(5, [] {});
    counting = false;
    q.serviceUntil(5);
    EXPECT_LE(allocations, 2u);
}

TEST(AllocCounter, CountsHeapAllocations)
{
    // The budget test is only meaningful if the replacement is live.
    allocations = 0;
    counting = true;
    auto *probe = new std::uint64_t(7);
    counting = false;
    delete probe;
    EXPECT_EQ(allocations, 1u);
}

} // namespace
