#include "experiments.hh"

#include <algorithm>
#include <iomanip>
#include <memory>

#include "io/network_interface.hh"
#include "kernels.hh"
#include "sim/logging.hh"
#include "system.hh"

namespace csb::core {

std::string
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::NoCombine: return "no-comb";
      case Scheme::Combine16: return "comb-16";
      case Scheme::Combine32: return "comb-32";
      case Scheme::Combine64: return "comb-64";
      case Scheme::Combine128: return "comb-128";
      case Scheme::Csb: return "CSB";
    }
    return "?";
}

unsigned
schemeCombineBytes(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Combine16: return 16;
      case Scheme::Combine32: return 32;
      case Scheme::Combine64: return 64;
      case Scheme::Combine128: return 128;
      default: return 0;
    }
}

std::vector<Scheme>
schemesForLine(unsigned line_bytes)
{
    std::vector<Scheme> schemes{Scheme::NoCombine};
    if (line_bytes >= 16)
        schemes.push_back(Scheme::Combine16);
    if (line_bytes >= 32)
        schemes.push_back(Scheme::Combine32);
    if (line_bytes >= 64)
        schemes.push_back(Scheme::Combine64);
    if (line_bytes >= 128)
        schemes.push_back(Scheme::Combine128);
    schemes.push_back(Scheme::Csb);
    return schemes;
}

std::vector<unsigned>
defaultTransferSizes()
{
    return {16, 32, 64, 128, 256, 512, 1024};
}

SystemConfig
bandwidthConfig(const BandwidthSetup &setup, Scheme scheme)
{
    SystemConfig cfg;
    cfg.lineBytes = setup.lineBytes;
    cfg.bus = setup.bus;
    cfg.enableCsb = scheme == Scheme::Csb;
    cfg.ubuf.combineBytes = schemeCombineBytes(scheme);
    cfg.normalize();
    return cfg;
}

double
measureStoreBandwidth(const BandwidthSetup &setup, Scheme scheme,
                      unsigned transfer_bytes)
{
    System system(bandwidthConfig(setup, scheme));
    system.run(scheme == Scheme::Csb
                   ? makeCsbStoreKernel(System::ioCsbBase, transfer_bytes,
                                        setup.lineBytes)
                   : makeStoreKernel(scheme == Scheme::NoCombine
                                         ? System::ioUncachedBase
                                         : System::ioAccelBase,
                                     transfer_bytes));

    std::uint64_t cycles = system.ioWriteBusCycles();
    csb_assert(cycles > 0, "no I/O transactions recorded");
    // Useful bytes per bus cycle: the CSB's zero padding does not
    // count as payload (that is exactly its small-transfer penalty).
    return static_cast<double>(transfer_bytes) /
           static_cast<double>(cycles);
}

BandwidthSweep
runBandwidthSweep(SweepRunner &runner, const std::string &title,
                  const BandwidthSetup &setup,
                  const std::vector<Scheme> &schemes,
                  const std::vector<unsigned> &sizes)
{
    BandwidthSweep sweep;
    sweep.title = title;
    sweep.sizes = sizes;
    sweep.schemes = schemes;

    // Flatten the scheme x size grid into independent points; each
    // builds its own System, so the runner may execute them on any
    // worker in any order.  Results come back in grid-index order.
    std::vector<double> flat = runner.mapIndex(
        schemes.size() * sizes.size(), [&](std::size_t point) {
            Scheme scheme = schemes[point / sizes.size()];
            unsigned size = sizes[point % sizes.size()];
            return measureStoreBandwidth(setup, scheme, size);
        });

    for (std::size_t i = 0; i < schemes.size(); ++i) {
        sweep.bandwidth.emplace_back(
            flat.begin() + i * sizes.size(),
            flat.begin() + (i + 1) * sizes.size());
    }
    return sweep;
}

void
printSweep(const BandwidthSweep &sweep, std::ostream &os)
{
    os << "=== " << sweep.title << " ===\n";
    os << std::left << std::setw(10) << "transfer";
    for (Scheme scheme : sweep.schemes)
        os << std::right << std::setw(10) << schemeName(scheme);
    os << "\n";
    for (std::size_t j = 0; j < sweep.sizes.size(); ++j) {
        os << std::left << std::setw(10) << sweep.sizes[j];
        for (std::size_t i = 0; i < sweep.schemes.size(); ++i) {
            os << std::right << std::setw(10) << std::fixed
               << std::setprecision(2) << sweep.bandwidth[i][j];
        }
        os << "\n";
    }
    os << "(bytes per bus cycle)\n\n";
}

double
measureLockedSequence(const BandwidthSetup &setup, Scheme scheme,
                      unsigned n_dwords, bool lock_miss)
{
    csb_assert(scheme != Scheme::Csb,
               "use measureCsbSequence for the CSB");
    System system(bandwidthConfig(setup, scheme));

    constexpr Addr lock_addr = 0x4000;
    if (!lock_miss)
        system.caches().touch(lock_addr);

    Addr io_base = scheme == Scheme::NoCombine ? System::ioUncachedBase
                                               : System::ioAccelBase;
    isa::Program program =
        makeLockedStoreKernel(lock_addr, io_base, n_dwords);
    system.run(program);

    Tick t0 = system.core().markTime(0);
    Tick t1 = system.core().markTime(1);
    csb_assert(t0 != maxTick && t1 != maxTick, "marks missing");
    return static_cast<double>(t1 - t0);
}

double
measureCsbSequence(const BandwidthSetup &setup, unsigned n_dwords)
{
    System system(bandwidthConfig(setup, Scheme::Csb));
    isa::Program program =
        makeCsbSequenceKernel(System::ioCsbBase, n_dwords);
    system.run(program);

    Tick t0 = system.core().markTime(0);
    Tick t1 = system.core().markTime(1);
    csb_assert(t0 != maxTick && t1 != maxTick, "marks missing");
    return static_cast<double>(t1 - t0);
}

LatencySweep
runLatencySweep(SweepRunner &runner, const std::string &title,
                const BandwidthSetup &setup, bool lock_miss)
{
    LatencySweep sweep;
    sweep.title = title;
    sweep.dwords = {2, 3, 4, 5, 6, 7, 8};
    sweep.schemes = schemesForLine(setup.lineBytes);

    std::vector<double> flat = runner.mapIndex(
        sweep.schemes.size() * sweep.dwords.size(),
        [&](std::size_t point) {
            Scheme scheme = sweep.schemes[point / sweep.dwords.size()];
            unsigned n = sweep.dwords[point % sweep.dwords.size()];
            return scheme == Scheme::Csb
                       ? measureCsbSequence(setup, n)
                       : measureLockedSequence(setup, scheme, n,
                                               lock_miss);
        });

    for (std::size_t i = 0; i < sweep.schemes.size(); ++i) {
        sweep.cycles.emplace_back(
            flat.begin() + i * sweep.dwords.size(),
            flat.begin() + (i + 1) * sweep.dwords.size());
    }
    return sweep;
}

void
printLatencySweep(const LatencySweep &sweep, std::ostream &os)
{
    os << "=== " << sweep.title << " ===\n";
    os << std::left << std::setw(10) << "bytes";
    for (Scheme scheme : sweep.schemes) {
        std::string name = scheme == Scheme::Csb
                               ? schemeName(scheme)
                               : "lock+" + schemeName(scheme);
        os << std::right << std::setw(14) << name;
    }
    os << "\n";
    for (std::size_t j = 0; j < sweep.dwords.size(); ++j) {
        os << std::left << std::setw(10) << sweep.dwords[j] * 8;
        for (std::size_t i = 0; i < sweep.schemes.size(); ++i) {
            os << std::right << std::setw(14) << std::fixed
               << std::setprecision(0) << sweep.cycles[i][j];
        }
        os << "\n";
    }
    os << "(CPU cycles per atomic access sequence)\n\n";
}

// --------------------------------------------------------------------
// Section 5 extension: PIO vs DMA

namespace {

/** Build the PIO send kernel (lock-protected, non-CSB). */
isa::Program
makePioLockedSend(Addr lock_addr, Addr pio_base, Addr doorbell,
                  unsigned bytes)
{
    using isa::ir;
    isa::Program p;
    for (int r = 2; r <= 8; ++r)
        p.li(ir(r), 0x2222222222222222ULL * static_cast<unsigned>(r));
    p.li(ir(1), static_cast<std::int64_t>(pio_base));
    p.li(ir(10), static_cast<std::int64_t>(lock_addr));
    p.li(ir(11), 1);
    p.mark(0);
    isa::Label spin = p.newLabel();
    p.bind(spin);
    p.swap(ir(11), ir(10), 0);
    p.bne(ir(11), ir(0), spin);
    p.membar();
    for (unsigned off = 0; off < bytes; off += 8)
        p.std_(ir(2 + (off / 8) % 7), ir(1), off);
    p.membar();
    p.li(ir(13), static_cast<std::int64_t>(bytes));
    p.li(ir(14), static_cast<std::int64_t>(doorbell));
    p.std_(ir(13), ir(14), 0);
    p.membar();
    p.li(ir(12), 0);
    p.std_(ir(12), ir(10), 0);
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

/** Build the PIO send kernel through the CSB (lock-free). */
isa::Program
makePioCsbSend(Addr pio_base, Addr doorbell, unsigned bytes,
               unsigned line_bytes)
{
    using isa::ir;
    isa::Program p;
    for (int r = 2; r <= 8; ++r)
        p.li(ir(r), 0x3333333333333333ULL * static_cast<unsigned>(r));
    p.li(ir(1), static_cast<std::int64_t>(pio_base));
    p.mark(0);
    for (unsigned group = 0; group * line_bytes < bytes; ++group) {
        unsigned group_base = group * line_bytes;
        unsigned group_bytes = std::min(line_bytes, bytes - group_base);
        auto dwords = static_cast<std::int64_t>(group_bytes / 8);
        isa::Label retry = p.newLabel();
        p.bind(retry);
        p.li(ir(9), dwords);
        for (unsigned off = 0; off < group_bytes; off += 8)
            p.std_(ir(2 + ((group_base + off) / 8) % 7), ir(1),
                   group_base + off);
        p.swap(ir(9), ir(1), group_base);
        p.li(ir(12), dwords);
        p.bne(ir(9), ir(12), retry);
    }
    p.membar(); // drain the flushed lines before ringing the doorbell
    p.li(ir(13), static_cast<std::int64_t>(bytes));
    p.li(ir(14), static_cast<std::int64_t>(doorbell));
    p.std_(ir(13), ir(14), 0);
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

/** Build the DMA send kernel: one descriptor push. */
isa::Program
makeDmaSend(Addr desc_reg, Addr payload_addr, unsigned bytes)
{
    using isa::ir;
    isa::Program p;
    p.li(ir(14), static_cast<std::int64_t>(desc_reg));
    p.mark(0);
    p.li(ir(2), static_cast<std::int64_t>(io::packDescriptor(
                    payload_addr, static_cast<std::uint16_t>(bytes))));
    p.std_(ir(2), ir(14), 0);
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

double
sendLatency(System &system, const isa::Program &program)
{
    system.run(program);
    Tick t0 = system.core().markTime(0);
    csb_assert(t0 != maxTick, "mark 0 missing");
    const auto &delivered = system.ni()->delivered();
    csb_assert(!delivered.empty(), "no message was delivered");
    return static_cast<double>(delivered.back().sendTick - t0);
}

} // namespace

MessageLatency
measureMessageLatency(const BandwidthSetup &setup, unsigned payload_bytes)
{
    MessageLatency result;
    result.bytes = payload_bytes;
    constexpr Addr lock_addr = 0x4000;

    Addr pio = System::niBase + io::NiMap::pioBase;
    Addr bell = System::niBase + io::NiMap::doorbell;
    Addr desc = System::niBase + io::NiMap::descBase;

    // PIO under a lock: conventional uncached stores (the baseline
    // the paper's cited NI designs use).
    {
        SystemConfig cfg = bandwidthConfig(setup, Scheme::NoCombine);
        cfg.enableNi = true;
        cfg.normalize();
        System system(cfg);
        system.caches().touch(lock_addr);
        result.pioLockedCycles = sendLatency(
            system,
            makePioLockedSend(lock_addr, pio, bell, payload_bytes));
    }

    // PIO through the CSB, lock-free.
    {
        SystemConfig cfg = bandwidthConfig(setup, Scheme::Csb);
        cfg.enableNi = true;
        cfg.normalize();
        System system(cfg);
        result.pioCsbCycles = sendLatency(
            system,
            makePioCsbSend(pio, bell, payload_bytes, setup.lineBytes));
    }

    // DMA: one descriptor store; the NI fetches the payload itself.
    {
        SystemConfig cfg = bandwidthConfig(setup, Scheme::NoCombine);
        cfg.enableNi = true;
        cfg.normalize();
        System system(cfg);
        constexpr Addr payload_addr = 0x10000;
        std::vector<std::uint8_t> payload(payload_bytes, 0xab);
        system.memory().write(payload_addr, payload.data(),
                              payload.size());
        result.dmaCycles = sendLatency(
            system, makeDmaSend(desc, payload_addr, payload_bytes));
    }

    return result;
}

} // namespace csb::core
