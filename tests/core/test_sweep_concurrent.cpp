/**
 * @file
 * Static-state regression tests for concurrent Simulators.  These are
 * the tests the tsan preset exists for: two full System instances
 * stepping in different threads must not race through any hidden
 * global (trace configuration, the Chrome-trace buffer, stats export), and
 * a real bandwidth sweep through the worker pool must reproduce the
 * serial sweep exactly.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/experiments.hh"
#include "core/kernels.hh"
#include "core/sweep.hh"
#include "core/system.hh"

namespace {

using namespace csb;
using core::BandwidthSetup;
using core::Scheme;

/** One complete simulation: build a System, stream stores, report BW. */
double
storeBandwidth(unsigned ratio, unsigned transfer_bytes)
{
    core::SystemConfig cfg;
    cfg.lineBytes = 64;
    cfg.bus.kind = bus::BusKind::Multiplexed;
    cfg.bus.widthBytes = 8;
    cfg.bus.ratio = ratio;
    cfg.enableCsb = true;
    cfg.normalize();
    core::System system(cfg);
    isa::Program p = core::makeCsbStoreKernel(core::System::ioCsbBase,
                                              transfer_bytes, 64);
    system.run(p);
    return static_cast<double>(transfer_bytes) /
           static_cast<double>(system.ioWriteBusCycles());
}

TEST(SweepConcurrent, TwoSimulatorsInParallelMatchSerial)
{
    // Reference values, measured with no other simulator alive.
    const double ref_a = storeBandwidth(2, 512);
    const double ref_b = storeBandwidth(6, 1024);

    // The same two simulations, overlapped on two threads.  Any
    // mutable static shared between Simulator/System instances makes
    // this racy (tsan) or wrong (value mismatch).
    double par_a = 0, par_b = 0;
    std::thread ta([&] {
        for (int i = 0; i < 4; ++i)
            par_a = storeBandwidth(2, 512);
    });
    std::thread tb([&] {
        for (int i = 0; i < 4; ++i)
            par_b = storeBandwidth(6, 1024);
    });
    ta.join();
    tb.join();
    EXPECT_EQ(par_a, ref_a);
    EXPECT_EQ(par_b, ref_b);
}

TEST(SweepConcurrent, BandwidthSweepIdenticalAcrossJobs)
{
    BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = 6;
    setup.lineBytes = 64;
    const std::vector<Scheme> schemes = {Scheme::NoCombine,
                                         Scheme::Combine64, Scheme::Csb};
    const std::vector<unsigned> sizes = {16, 64, 256, 1024};

    core::SweepRunner serial(1);
    core::BandwidthSweep a =
        core::runBandwidthSweep(serial, "t", setup, schemes, sizes);
    core::SweepRunner parallel(4);
    core::BandwidthSweep b =
        core::runBandwidthSweep(parallel, "t", setup, schemes, sizes);

    ASSERT_EQ(a.bandwidth.size(), b.bandwidth.size());
    for (std::size_t i = 0; i < a.bandwidth.size(); ++i)
        EXPECT_EQ(a.bandwidth[i], b.bandwidth[i])
            << "scheme row " << i << " diverged between jobs=1 and "
            << "jobs=4";
}

TEST(SweepConcurrent, LatencySweepIdenticalAcrossJobs)
{
    BandwidthSetup setup;
    core::SweepRunner serial(1);
    core::LatencySweep a =
        core::runLatencySweep(serial, "t", setup, /*lock_miss=*/true);
    core::SweepRunner parallel(4);
    core::LatencySweep b =
        core::runLatencySweep(parallel, "t", setup, /*lock_miss=*/true);
    ASSERT_EQ(a.cycles.size(), b.cycles.size());
    for (std::size_t i = 0; i < a.cycles.size(); ++i)
        EXPECT_EQ(a.cycles[i], b.cycles[i]);
}

TEST(SweepConcurrent, ManySmallSimulationsThroughThePool)
{
    // Deliberately more points than workers so tasks queue, recycle
    // workers, and exercise the back-pressure path with real Systems.
    core::SweepRunner runner(4);
    const std::vector<unsigned> sizes = {16, 32,  48,  64,  96, 128,
                                         192, 256, 384, 512, 768, 1024};
    std::vector<double> pooled = runner.map(sizes, [](unsigned size) {
        return storeBandwidth(6, size);
    });
    core::SweepRunner one(1);
    std::vector<double> serial = one.map(sizes, [](unsigned size) {
        return storeBandwidth(6, size);
    });
    EXPECT_EQ(pooled, serial);
}

} // namespace
