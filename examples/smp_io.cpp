/**
 * @file
 * An SMP node pushing I/O: the setting the paper's introduction is
 * about.  Two processors stream store bursts to the shared I/O device
 * concurrently -- first with conventional uncached stores, then
 * through their private conditional store buffers -- and the example
 * reports how much I/O the node squeezed through the shared bus and
 * how long the node was busy.
 */

#include <cstdio>
#include <iostream>

#include "core/kernels.hh"
#include "core/system.hh"

namespace {

using namespace csb;

struct NodeResult
{
    double busWindowCycles = 0;
    double aggregateBandwidth = 0;
    Tick completion = 0;
};

NodeResult
runNode(bool use_csb, bool print_config)
{
    core::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.bus.ratio = 6;
    cfg.enableCsb = use_csb;
    if (!use_csb)
        cfg.ubuf.combineBytes = 0; // conventional uncached stores
    cfg.normalize();
    core::System system(cfg);
    if (print_config)
        core::printConfig(cfg, std::cout);

    constexpr unsigned bytes_per_core = 1024;
    Addr base0 = use_csb ? core::System::ioCsbBase
                         : core::System::ioUncachedBase;
    Addr base1 = base0 + 0x10000;
    isa::Program p0 =
        use_csb ? core::makeCsbStoreKernel(base0, bytes_per_core, 64)
                : core::makeStoreKernel(base0, bytes_per_core);
    isa::Program p1 =
        use_csb ? core::makeCsbStoreKernel(base1, bytes_per_core, 64)
                : core::makeStoreKernel(base1, bytes_per_core);

    system.core(0).loadProgram(&p0, 1);
    system.core(1).loadProgram(&p1, 2);
    system.simulator().run(
        [&] {
            return system.core(0).halted() && system.core(1).halted() &&
                   system.quiescent();
        },
        10'000'000);

    NodeResult result;
    result.busWindowCycles =
        static_cast<double>(system.ioWriteBusCycles());
    result.aggregateBandwidth =
        2.0 * bytes_per_core / result.busWindowCycles;
    result.completion = system.simulator().curTick();
    return result;
}

} // namespace

int
main()
{
    std::puts("Two processors of one node each send 1 KiB of I/O "
              "stores to the shared bus.\n");

    NodeResult plain = runNode(/*use_csb=*/false, /*print_config=*/true);
    std::puts("");
    NodeResult with_csb = runNode(/*use_csb=*/true,
                                  /*print_config=*/false);

    std::printf("%-28s %18s %18s\n", "", "uncached stores",
                "conditional store buf");
    std::printf("%-28s %18.0f %18.0f\n", "bus window (bus cycles)",
                plain.busWindowCycles, with_csb.busWindowCycles);
    std::printf("%-28s %18.2f %18.2f\n",
                "aggregate I/O (B/bus cycle)", plain.aggregateBandwidth,
                with_csb.aggregateBandwidth);
    std::printf("%-28s %18llu %18llu\n", "node done at (CPU cycles)",
                static_cast<unsigned long long>(plain.completion),
                static_cast<unsigned long long>(with_csb.completion));

    std::printf("\nWith private CSBs the same node finishes its I/O in "
                "%.0f%% of the time,\nmoving %.1fx the bytes per bus "
                "cycle -- the bus-occupancy relief the paper\ntargets "
                "for multiprocessor nodes.\n",
                100.0 * static_cast<double>(with_csb.completion) /
                    static_cast<double>(plain.completion),
                with_csb.aggregateBandwidth / plain.aggregateBandwidth);
    return 0;
}
