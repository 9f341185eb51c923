/**
 * @file
 * Unit tests for the generic burst-capable device.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "io/burst_device.hh"
#include "sim/logging.hh"

namespace {

using namespace csb;
using io::BurstDevice;

bus::BusTransaction
makeWrite(Addr addr, unsigned size, std::uint8_t fill = 0xaa)
{
    bus::BusTransaction txn;
    txn.kind = bus::TxnKind::Write;
    txn.addr = addr;
    txn.size = size;
    txn.data.assign(size, fill);
    return txn;
}

TEST(BurstDevice, RecordsWritesWithTimestamps)
{
    BurstDevice device;
    bus::BusTransaction first = makeWrite(0x100, 8);
    bus::BusTransaction second = makeWrite(0x200, 64, 0x5c);
    device.write(first, 42);
    device.write(second, 99);
    ASSERT_EQ(device.writeLog().size(), 2u);
    EXPECT_EQ(device.writeLog()[0].completionTick, 42u);
    EXPECT_EQ(device.writeLog()[1].completionTick, 99u);
    // The log keeps the payload bytes (taken from the transaction).
    EXPECT_EQ(device.writeLog()[1].data,
              std::vector<std::uint8_t>(64, 0x5c));
    EXPECT_EQ(device.writesReceived.value(), 2.0);
    EXPECT_EQ(device.bytesReceived.value(), 72.0);
}

TEST(BurstDevice, NonBurstCapableDeviceRejectsLines)
{
    // Section 3.3: the CSB needs the target to accept burst writes; a
    // device that cannot surfaces it loudly.
    BurstDevice device(12, /*max_accept=*/8);
    bus::BusTransaction dword = makeWrite(0x0, 8);
    bus::BusTransaction line = makeWrite(0x40, 64);
    device.write(dword, 1); // fine
    EXPECT_THROW(device.write(line, 2), FatalError);
}

TEST(BurstDevice, RegistersReadBack)
{
    BurstDevice device;
    device.setRegister(0x100, 0x1234567890ULL);
    bus::BusTransaction txn;
    txn.kind = bus::TxnKind::ReadReq;
    txn.addr = 0x100;
    txn.size = 8;
    std::vector<std::uint8_t> data;
    Tick latency = device.read(txn, 0, data);
    EXPECT_EQ(latency, 12u);
    std::uint64_t value = 0;
    std::memcpy(&value, data.data(), 8);
    EXPECT_EQ(value, 0x1234567890ULL);
}

TEST(BurstDevice, RegisterUpdateOverwrites)
{
    BurstDevice device;
    device.setRegister(0x100, 1);
    device.setRegister(0x100, 2);
    bus::BusTransaction txn;
    txn.kind = bus::TxnKind::ReadReq;
    txn.addr = 0x100;
    txn.size = 8;
    std::vector<std::uint8_t> data;
    device.read(txn, 0, data);
    std::uint64_t value = 0;
    std::memcpy(&value, data.data(), 8);
    EXPECT_EQ(value, 2u);
}

TEST(BurstDevice, UnsetRegistersReadZero)
{
    BurstDevice device;
    bus::BusTransaction txn;
    txn.kind = bus::TxnKind::ReadReq;
    txn.addr = 0x500;
    txn.size = 8;
    std::vector<std::uint8_t> data;
    device.read(txn, 0, data);
    for (std::uint8_t byte : data)
        EXPECT_EQ(byte, 0);
}

TEST(BurstDevice, ClearLogResets)
{
    BurstDevice device;
    bus::BusTransaction txn = makeWrite(0x0, 8);
    device.write(txn, 1);
    device.clearLog();
    EXPECT_TRUE(device.writeLog().empty());
}

} // namespace
