/**
 * @file
 * Quickstart: build a system, write a short program that uses the
 * conditional store buffer, run it, and inspect what happened on the
 * system bus.
 *
 * The program stores eight doublewords into uncached-combining space
 * and commits them with one conditional flush; the bus carries a
 * single 64-byte burst instead of eight single-beat transactions.
 * Run it with CSBSIM_TRACE=bus to see each bus transaction as a line.
 */

#include <cstdio>

#include "core/system.hh"
#include "isa/program.hh"

int
main()
{
    using namespace csb;
    using isa::ir;

    // 1. Configure the system: 8-byte multiplexed bus, CPU:bus ratio
    //    6, 64-byte cache lines, CSB enabled.
    core::SystemConfig cfg;
    cfg.bus.kind = bus::BusKind::Multiplexed;
    cfg.bus.widthBytes = 8;
    cfg.bus.ratio = 6;
    cfg.lineBytes = 64;
    cfg.enableCsb = true;
    cfg.normalize();
    core::System system(cfg);

    // 2. Write the program with the fluent assembler.  This is the
    //    code pattern from the paper's section 3.2 listing.
    isa::Program p;
    isa::Label retry = p.newLabel();
    p.li(ir(1), core::System::ioCsbBase); // combining-space pointer
    for (int r = 2; r <= 8; ++r)          // data to send
        p.li(ir(r), 0x0101010101010101ULL * static_cast<unsigned>(r));

    p.bind(retry);
    p.li(ir(9), 8);                 // expected hit count
    p.std_(ir(2), ir(1), 0);        // 8 combining stores, any order
    p.std_(ir(4), ir(1), 16);
    p.std_(ir(3), ir(1), 8);
    p.std_(ir(5), ir(1), 24);
    p.std_(ir(6), ir(1), 32);
    p.std_(ir(8), ir(1), 48);
    p.std_(ir(7), ir(1), 40);
    p.std_(ir(2), ir(1), 56);
    p.swap(ir(9), ir(1), 0);        // conditional flush
    p.li(ir(10), 8);
    p.bne(ir(9), ir(10), retry);    // retry on conflict
    p.halt();
    p.finalize();

    std::puts("Program:");
    std::fputs(p.disassemble().c_str(), stdout);

    // 3. Run to completion.
    Tick end = system.run(p);
    std::printf("\nRan to quiescence at tick %llu\n",
                static_cast<unsigned long long>(end));

    // 4. Inspect the bus: the whole sequence became one burst.
    std::printf("\nBus: %g write(s), %g bytes; the I/O writes span %llu "
                "bus cycles\n(CSBSIM_TRACE=bus prints one line per "
                "transaction)\n",
                system.bus().numWrites.value(),
                system.bus().bytesWritten.value(),
                static_cast<unsigned long long>(system.ioWriteBusCycles()));

    std::printf("\nCSB stats: %g stores merged, %g flushes, "
                "%g lines issued\n",
                system.csb()->storesAccepted.value(),
                system.csb()->flushesAttempted.value(),
                system.csb()->linesIssued.value());

    // 5. The device received exactly one 64-byte write.
    const auto &log = system.device().writeLog();
    std::printf("Device received %zu write(s); first is %zu bytes\n",
                log.size(), log.empty() ? 0 : log[0].data.size());
    return 0;
}
