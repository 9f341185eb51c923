/**
 * @file
 * Tests for the CSBT trace format: recorder/reader round trip, the
 * text dump mode, and strict rejection of corrupt or truncated input
 * (docs/TRACE_FORMAT.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/trace_recorder.hh"

namespace {

using csb::FatalError;
using csb::sim::MemTrace;
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

TEST(TraceRecorder, StreamRoundTripPreservesEveryRecord)
{
    TraceRecorder recorder = sampleRecorder();
    std::ostringstream out;
    recorder.writeTo(out);

    std::istringstream in(out.str());
    MemTrace trace = MemTrace::readFrom(in);
    EXPECT_EQ(trace.numCpus(), 1u);
    EXPECT_EQ(trace.lineBytes(), 64u);
    EXPECT_EQ(trace.records(), recorder.records());
}

TEST(TraceRecorder, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "trace_roundtrip.csbt";
    TraceRecorder recorder = sampleRecorder();
    recorder.writeFile(path);
    MemTrace trace = MemTrace::loadFile(path);
    EXPECT_EQ(trace.records(), recorder.records());
    std::remove(path.c_str());
}

TEST(TraceRecorder, RecordsForCpuFiltersAndPreservesOrder)
{
    TraceRecorder recorder(2, 64);
    TraceRecord a = rec(1, TraceOp::UncachedStore, 0x2000'0000, 8);
    TraceRecord b = a;
    b.cpu = 1;
    b.tick = 2;
    TraceRecord c = a;
    c.tick = 3;
    recorder.append(a);
    recorder.append(b);
    recorder.append(c);

    MemTrace trace = MemTrace::fromRecorder(recorder);
    auto cpu0 = trace.recordsForCpu(0);
    ASSERT_EQ(cpu0.size(), 2u);
    EXPECT_EQ(cpu0[0], a);
    EXPECT_EQ(cpu0[1], c);
    EXPECT_EQ(trace.recordsForCpu(1).size(), 1u);
}

TEST(TraceRecorder, RejectsBadMagic)
{
    TraceRecorder recorder = sampleRecorder();
    std::ostringstream out;
    recorder.writeTo(out);
    std::string bytes = out.str();
    bytes[0] = 'X';
    std::istringstream in(bytes);
    EXPECT_THROW(MemTrace::readFrom(in), FatalError);
}

TEST(TraceRecorder, RejectsUnknownVersion)
{
    TraceRecorder recorder = sampleRecorder();
    std::ostringstream out;
    recorder.writeTo(out);
    std::string bytes = out.str();
    bytes[4] = 99; // version field, little-endian low byte
    std::istringstream in(bytes);
    EXPECT_THROW(MemTrace::readFrom(in), FatalError);
}

TEST(TraceRecorder, RejectsTruncatedHeader)
{
    TraceRecorder recorder = sampleRecorder();
    std::ostringstream out;
    recorder.writeTo(out);
    std::istringstream in(out.str().substr(0, 17));
    EXPECT_THROW(MemTrace::readFrom(in), FatalError);
}

TEST(TraceRecorder, RejectsTruncatedRecords)
{
    TraceRecorder recorder = sampleRecorder();
    std::ostringstream out;
    recorder.writeTo(out);
    std::string bytes = out.str();
    std::istringstream in(bytes.substr(0, bytes.size() - 5));
    EXPECT_THROW(MemTrace::readFrom(in), FatalError);
}

TEST(TraceRecorder, RejectsTrailingBytes)
{
    TraceRecorder recorder = sampleRecorder();
    std::ostringstream out;
    recorder.writeTo(out);
    std::istringstream in(out.str() + "junk");
    EXPECT_THROW(MemTrace::readFrom(in), FatalError);
}

TEST(TraceRecorder, RejectsNonMonotonicTicks)
{
    TraceRecorder recorder(1, 64);
    recorder.append(rec(10, TraceOp::Membar, 0, 0));
    recorder.append(rec(5, TraceOp::Membar, 0, 0));
    std::ostringstream out;
    recorder.writeTo(out);
    std::istringstream in(out.str());
    EXPECT_THROW(MemTrace::readFrom(in), FatalError);
}

TEST(TraceRecorder, LoadFileRejectsMissingFile)
{
    EXPECT_THROW(MemTrace::loadFile("/nonexistent/trace.csbt"),
                 FatalError);
}

} // namespace
