/**
 * @file
 * Unit tests for the bus monitor's filtering and the section 4.3.1
 * measurement window that System::ioWriteBusCycles() reports.
 */

#include <gtest/gtest.h>

#include "bus/bus_monitor.hh"

namespace {

using namespace csb;
using bus::BusMonitor;
using bus::TxnKind;
using bus::TxnRecord;

TxnRecord
rec(Addr addr, unsigned size, std::uint64_t addr_cycle,
    std::uint64_t last_data, TxnKind kind = TxnKind::Write)
{
    TxnRecord record;
    record.addr = addr;
    record.size = size;
    record.kind = kind;
    record.addrCycle = addr_cycle;
    record.firstDataCycle = addr_cycle + 1;
    record.lastDataCycle = last_data;
    return record;
}

TEST(BusMonitor, EmptyMonitor)
{
    BusMonitor monitor;
    EXPECT_TRUE(monitor.records().empty());
    EXPECT_EQ(monitor.windowCycles(), 0u);
}

TEST(BusMonitor, WindowDefinition)
{
    // 8 bytes in cycles [0..1], 8 bytes in [2..3]: 16 bytes over a
    // 4-cycle window = 4 B/cycle (the paper's half-of-peak reference).
    BusMonitor monitor;
    monitor.record(rec(0x0, 8, 0, 1));
    monitor.record(rec(0x8, 8, 2, 3));
    EXPECT_EQ(monitor.windowCycles(), 4u);
}

TEST(BusMonitor, TrailingGapNotCharged)
{
    // A single 2-cycle transaction: the window is exactly its tenure
    // regardless of what idle time follows.
    BusMonitor monitor;
    monitor.record(rec(0x0, 8, 10, 11));
    EXPECT_EQ(monitor.windowCycles(), 2u);
}

TEST(BusMonitor, PredicatesFilter)
{
    BusMonitor monitor;
    monitor.record(rec(0x1000, 8, 0, 1));
    monitor.record(rec(0x2000'0000, 64, 2, 10));
    monitor.record(rec(0x2000'0040, 8, 11, 11, TxnKind::ReadReq));

    auto io_writes = [](const TxnRecord &record) {
        return record.kind == TxnKind::Write &&
               record.addr >= 0x2000'0000;
    };
    // Cycles 2..10: the 64-byte burst's address and data cycles only.
    EXPECT_EQ(monitor.windowCycles(io_writes), 9u);
    EXPECT_EQ(monitor.windowCycles(), 12u);
}

TEST(BusMonitor, ClearStartsFreshWindow)
{
    BusMonitor monitor;
    monitor.record(rec(0x0, 8, 0, 1));
    monitor.clear();
    EXPECT_TRUE(monitor.records().empty());
    monitor.record(rec(0x0, 8, 100, 101));
    EXPECT_EQ(monitor.windowCycles(), 2u);
}

} // namespace
