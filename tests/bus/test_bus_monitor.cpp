/**
 * @file
 * Unit tests for the bus monitor's running totals and the section
 * 4.3.1 measurement window that System::ioWriteBusCycles() reports.
 */

#include <gtest/gtest.h>

#include "bus/bus_monitor.hh"
#include "sim/checkpoint.hh"

namespace {

using namespace csb;
using bus::BusMonitor;
using bus::TxnKind;

constexpr Addr kIoBase = 0x2000'0000;

TEST(BusMonitor, EmptyMonitor)
{
    BusMonitor monitor(kIoBase);
    EXPECT_EQ(monitor.all().txns, 0u);
    EXPECT_EQ(monitor.all().cycles(), 0u);
    EXPECT_EQ(monitor.ioWrites().cycles(), 0u);
}

TEST(BusMonitor, WindowDefinition)
{
    // 8 bytes in cycles [0..1], 8 bytes in [2..3]: 16 bytes over a
    // 4-cycle window = 4 B/cycle (the paper's half-of-peak reference).
    BusMonitor monitor(kIoBase);
    monitor.note(TxnKind::Write, 0x0, 8, 0, 1);
    monitor.note(TxnKind::Write, 0x8, 8, 2, 3);
    EXPECT_EQ(monitor.all().txns, 2u);
    EXPECT_EQ(monitor.all().bytes, 16u);
    EXPECT_EQ(monitor.all().cycles(), 4u);
}

TEST(BusMonitor, TrailingGapNotCharged)
{
    // A single 2-cycle transaction: the window is exactly its tenure
    // regardless of what idle time follows.
    BusMonitor monitor(kIoBase);
    monitor.note(TxnKind::Write, 0x0, 8, 10, 11);
    EXPECT_EQ(monitor.all().cycles(), 2u);
}

TEST(BusMonitor, IoWritesAreWritesAtOrAboveTheBase)
{
    BusMonitor monitor(kIoBase);
    monitor.note(TxnKind::Write, 0x1000, 8, 0, 1);
    monitor.note(TxnKind::Write, kIoBase, 64, 2, 10);
    monitor.note(TxnKind::ReadReq, kIoBase + 0x40, 8, 11, 11);
    monitor.note(TxnKind::ReadResp, kIoBase + 0x40, 8, 11, 14);

    // Cycles 2..10: the 64-byte burst's address and data cycles only.
    EXPECT_EQ(monitor.ioWrites().txns, 1u);
    EXPECT_EQ(monitor.ioWrites().bytes, 64u);
    EXPECT_EQ(monitor.ioWrites().cycles(), 9u);
    // Every tenure; a read request moves no data bytes.
    EXPECT_EQ(monitor.all().txns, 4u);
    EXPECT_EQ(monitor.all().bytes, 8u + 64 + 8);
    EXPECT_EQ(monitor.all().cycles(), 15u);
}

TEST(BusMonitor, CheckpointCarriesBothWindows)
{
    BusMonitor saved(kIoBase);
    saved.note(TxnKind::Write, 0x1000, 8, 3, 4);
    saved.note(TxnKind::Write, kIoBase, 64, 5, 13);
    sim::CheckpointWriter cw;
    cw.beginSection("bus");
    saved.checkpointSave(cw);
    // Two windows of four words each: no per-transaction state.
    EXPECT_EQ(cw.image().size(), 24u + 4 + 3 + 8 + 2 * 4 * 8);

    BusMonitor restored(kIoBase);
    restored.note(TxnKind::Write, kIoBase, 8, 0, 1); // overwritten
    sim::CheckpointReader cr = sim::CheckpointReader::fromImage(cw.image());
    cr.openSection("bus");
    restored.checkpointRestore(cr);
    cr.closeSection();

    // Later tenures extend the windows exactly as on the saved monitor.
    for (BusMonitor *m : {&saved, &restored})
        m->note(TxnKind::Write, kIoBase + 64, 8, 20, 21);
    for (auto window : {&BusMonitor::all, &BusMonitor::ioWrites}) {
        const bus::BusWindow &want = (saved.*window)();
        const bus::BusWindow &got = (restored.*window)();
        EXPECT_EQ(got.txns, want.txns);
        EXPECT_EQ(got.bytes, want.bytes);
        EXPECT_EQ(got.firstAddrCycle, want.firstAddrCycle);
        EXPECT_EQ(got.lastDataCycle, want.lastDataCycle);
    }
    EXPECT_EQ(restored.all().cycles(), 19u);
    EXPECT_EQ(restored.ioWrites().cycles(), 17u);
}

} // namespace
