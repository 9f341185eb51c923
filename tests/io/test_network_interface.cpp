/**
 * @file
 * Unit tests for the network interface: PIO path, doorbell, DMA
 * descriptors, the wire model, and pipelined DMA reads.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "bus/system_bus.hh"
#include "io/network_interface.hh"
#include "mem/main_memory.hh"
#include "mem/physical_memory.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using io::NetworkInterface;
using io::NetworkInterfaceParams;
using io::NiMap;

constexpr Addr kNiBase = 0x100000;

class NiFixture : public ::testing::Test
{
  protected:
    void
    make(NetworkInterfaceParams params = {})
    {
        bus::BusParams bus_params;
        bus_params.widthBytes = 8;
        bus_params.ratio = 6;
        bus_params.maxBurstBytes = 64;
        bus = std::make_unique<bus::SystemBus>(sim, bus_params);
        memory = std::make_unique<mem::MainMemory>(storage, 60);
        bus->addTarget(0, 0x10000, memory.get());
        ni = std::make_unique<NetworkInterface>(sim, *bus, kNiBase,
                                                params);
        bus->addTarget(kNiBase, NiMap::windowSize, ni.get());
    }

    /** Deliver a write transaction directly to the NI window. */
    void
    niWrite(Addr offset, const std::vector<std::uint8_t> &data)
    {
        bus::BusTransaction txn;
        txn.kind = bus::TxnKind::Write;
        txn.addr = kNiBase + offset;
        txn.size = static_cast<unsigned>(data.size());
        txn.data = data;
        ni->write(txn, sim.curTick());
    }

    void
    niWriteDword(Addr offset, std::uint64_t value)
    {
        std::vector<std::uint8_t> data(8);
        std::memcpy(data.data(), &value, 8);
        niWrite(offset, data);
    }

    void
    runUntilIdle()
    {
        sim.run([&] { return ni->idle() && bus->quiescent(); }, 1000000);
        ASSERT_TRUE(ni->idle());
    }

    sim::Simulator sim;
    mem::PhysicalMemory storage;
    std::unique_ptr<bus::SystemBus> bus;
    std::unique_ptr<mem::MainMemory> memory;
    std::unique_ptr<NetworkInterface> ni;
};

TEST_F(NiFixture, ConstructorRejectsInvalidParams)
{
    NetworkInterfaceParams zero_outstanding;
    zero_outstanding.dmaMaxOutstanding = 0;
    EXPECT_THROW(make(zero_outstanding), FatalError);
    NetworkInterfaceParams zero_burst;
    zero_burst.dmaBurstBytes = 0;
    EXPECT_THROW(make(zero_burst), FatalError);
    NetworkInterfaceParams negative_wire;
    negative_wire.wireTicksPerByte = -1;
    EXPECT_THROW(make(negative_wire), FatalError);
    NetworkInterfaceParams zero_attempts;
    zero_attempts.maxSendAttempts = 0;
    EXPECT_THROW(make(zero_attempts), FatalError);
}

TEST_F(NiFixture, PioMessageDelivered)
{
    make();
    std::vector<std::uint8_t> payload(16);
    for (unsigned i = 0; i < 16; ++i)
        payload[i] = static_cast<std::uint8_t>(i + 1);
    niWrite(NiMap::pioBase, {payload.begin(), payload.begin() + 8});
    niWrite(NiMap::pioBase + 8, {payload.begin() + 8, payload.end()});
    niWriteDword(NiMap::doorbell, 16);
    runUntilIdle();

    ASSERT_EQ(ni->delivered().size(), 1u);
    EXPECT_EQ(ni->delivered()[0].payload, payload);
    EXPECT_FALSE(ni->delivered()[0].viaDma);
    EXPECT_EQ(ni->pioMessages.value(), 1.0);
}

TEST_F(NiFixture, CsbPaddingTrimmedByDoorbellLength)
{
    make();
    // A 64-byte line burst whose tail is CSB zero padding.
    std::vector<std::uint8_t> line(64, 0);
    for (unsigned i = 0; i < 24; ++i)
        line[i] = static_cast<std::uint8_t>(i + 1);
    niWrite(NiMap::pioBase, line);
    niWriteDword(NiMap::doorbell, 24);
    runUntilIdle();

    ASSERT_EQ(ni->delivered().size(), 1u);
    ASSERT_EQ(ni->delivered()[0].payload.size(), 24u);
    EXPECT_EQ(ni->delivered()[0].payload[23], 24);
}

TEST_F(NiFixture, DescriptorKicksDma)
{
    make();
    std::vector<std::uint8_t> payload(200);
    for (unsigned i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 3 + 1);
    storage.write(0x2000, payload.data(), payload.size());

    niWriteDword(NiMap::descBase, io::packDescriptor(0x2000, 200));
    runUntilIdle();

    ASSERT_EQ(ni->delivered().size(), 1u);
    EXPECT_TRUE(ni->delivered()[0].viaDma);
    EXPECT_EQ(ni->delivered()[0].payload, payload);
    EXPECT_EQ(ni->dmaMessages.value(), 1.0);
}

TEST_F(NiFixture, ZeroDescriptorsArePadding)
{
    make();
    // A 64-byte burst carrying two descriptors and six zero slots.
    std::vector<std::uint8_t> block(64, 0);
    std::uint64_t d0 = io::packDescriptor(0x2000, 8);
    std::uint64_t d1 = io::packDescriptor(0x2100, 8);
    std::memcpy(block.data(), &d0, 8);
    std::memcpy(block.data() + 24, &d1, 8);
    niWrite(NiMap::descBase, block);
    runUntilIdle();

    EXPECT_EQ(ni->descriptorsPushed.value(), 2.0);
    EXPECT_EQ(ni->delivered().size(), 2u);
}

TEST_F(NiFixture, DmaReadsArePipelined)
{
    NetworkInterfaceParams params;
    params.dmaMaxOutstanding = 4;
    make(params);
    trace_test::BusTxnCapture capture;
    storage.write(0x2000, std::vector<std::uint8_t>(512, 1).data(), 512);
    niWriteDword(NiMap::descBase, io::packDescriptor(0x2000, 512));
    runUntilIdle();

    // With 4 outstanding line reads, consecutive read-request address
    // cycles overlap the 60-tick memory latency: the whole 8-line
    // fetch must take far less than 8 serialized round trips.
    std::uint64_t first = UINT64_MAX;
    std::uint64_t last = 0;
    unsigned responses = 0;
    for (const auto &rec : capture.txns()) {
        if (rec.kind == bus::TxnKind::ReadResp) {
            first = std::min(first, rec.firstDataCycle);
            last = std::max(last, rec.lastDataCycle);
            ++responses;
        }
    }
    ASSERT_EQ(responses, 8u);
    // Serialized: ~8 * (latency 10 cycles + 8 data) = ~144 cycles.
    // Pipelined: bounded by data cycles ~8*8 + latency ~10.
    EXPECT_LT(last - first, 100u);
}

TEST_F(NiFixture, WireSerializesMessages)
{
    NetworkInterfaceParams params;
    params.wireTicksPerByte = 2.0;
    params.wireLatency = 100;
    make(params);
    niWrite(NiMap::pioBase, std::vector<std::uint8_t>(8, 1));
    niWriteDword(NiMap::doorbell, 8);
    niWrite(NiMap::pioBase, std::vector<std::uint8_t>(8, 2));
    niWriteDword(NiMap::doorbell, 8);
    runUntilIdle();

    ASSERT_EQ(ni->delivered().size(), 2u);
    const auto &first = ni->delivered()[0];
    const auto &second = ni->delivered()[1];
    EXPECT_GE(second.sendTick, first.sendTick + 16)
        << "second message waits for the wire";
    EXPECT_EQ(first.deliverTick, first.sendTick + 100);
}

TEST_F(NiFixture, StatusReadCountsPendingWork)
{
    make();
    niWriteDword(NiMap::descBase, io::packDescriptor(0x2000, 64));
    bus::BusTransaction txn;
    txn.kind = bus::TxnKind::ReadReq;
    txn.addr = kNiBase;
    txn.size = 8;
    std::vector<std::uint8_t> data;
    ni->read(txn, sim.curTick(), data);
    std::uint64_t status = 0;
    std::memcpy(&status, data.data(), 8);
    EXPECT_EQ(status, 1u);
    runUntilIdle();
    ni->read(txn, sim.curTick(), data);
    std::memcpy(&status, data.data(), 8);
    EXPECT_EQ(status, 0u);
}

} // namespace
