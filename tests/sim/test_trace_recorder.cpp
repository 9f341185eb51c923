/**
 * @file
 * Tests for the CSBT trace writer: every byte of a written stream sits
 * where docs/TRACE_FORMAT.md puts it.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/trace_recorder.hh"

namespace {

using csb::sim::TraceFlagEventPhase;
using csb::sim::TraceFlagSwap;
using csb::sim::TraceOp;
using csb::sim::TraceRecord;
using csb::sim::TraceRecorder;

TraceRecord
rec(csb::Tick tick, TraceOp op, csb::Addr addr, std::uint8_t size,
    std::uint64_t value = 0, std::uint8_t flags = 0)
{
    TraceRecord r;
    r.tick = tick;
    r.op = op;
    r.addr = addr;
    r.size = size;
    r.value = value;
    r.flags = flags;
    r.pid = 1;
    return r;
}

/** A small stream exercising every field. */
TraceRecorder
sampleRecorder()
{
    TraceRecorder recorder(1, 64);
    recorder.append(rec(10, TraceOp::CachedLoad, 0x4000, 8, 20));
    recorder.append(rec(10, TraceOp::UncachedStore, 0x2000'0000, 8,
                        0x1111111111111111ULL, TraceFlagEventPhase));
    recorder.append(rec(15, TraceOp::CsbStore, 0x2200'0000, 8,
                        0x2222222222222222ULL));
    recorder.append(rec(22, TraceOp::CsbFlush, 0x2200'0000, 8, 1));
    recorder.append(
        rec(30, TraceOp::SwapMemWrite, 0x4000, 8, 7, TraceFlagSwap));
    recorder.append(rec(31, TraceOp::Membar, 0, 0));
    return recorder;
}

/** The @p bytes-wide little-endian field at @p offset of @p stream. */
std::uint64_t
field(const std::string &stream, std::size_t offset, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint64_t(std::uint8_t(stream.at(offset + i))) << (8 * i);
    return v;
}

TEST(TraceRecorder, WritesTheSpecifiedLayout)
{
    const TraceRecorder recorder = sampleRecorder();
    std::ostringstream out;
    recorder.writeTo(out);
    const std::string stream = out.str();
    const auto &records = recorder.records();

    // Section 2: a 40-byte header, then 32 bytes per record, then EOF.
    ASSERT_EQ(stream.size(), 40 + 32 * records.size());

    // Section 3: the header.
    EXPECT_EQ(stream.substr(0, 4), "CSBT");
    EXPECT_EQ(field(stream, 4, 4), 1u);  // version
    EXPECT_EQ(field(stream, 8, 4), 1u);  // num_cpus
    EXPECT_EQ(field(stream, 12, 4), 64u); // line_bytes
    EXPECT_EQ(field(stream, 16, 4), 32u); // record_size
    EXPECT_EQ(field(stream, 20, 8), records.size());
    EXPECT_EQ(stream.substr(28, 12), std::string(12, '\0')); // reserved

    // Section 4: each record at 40 + 32 * i.
    for (std::size_t i = 0; i < records.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        const TraceRecord &r = records[i];
        const std::size_t base = 40 + 32 * i;
        EXPECT_EQ(field(stream, base + 0, 8), r.tick);
        EXPECT_EQ(field(stream, base + 8, 8), r.addr);
        EXPECT_EQ(field(stream, base + 16, 8), r.value);
        EXPECT_EQ(field(stream, base + 24, 4), r.pid);
        EXPECT_EQ(field(stream, base + 28, 1), std::uint64_t(r.op));
        EXPECT_EQ(field(stream, base + 29, 1), r.cpu);
        EXPECT_EQ(field(stream, base + 30, 1), r.size);
        EXPECT_EQ(field(stream, base + 31, 1), r.flags);
    }
}

} // namespace
