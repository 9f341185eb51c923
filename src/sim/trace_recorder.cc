/**
 * @file
 * CSBT v1 serialization (see docs/TRACE_FORMAT.md for the normative
 * layout).  All multi-byte fields are little-endian and are encoded
 * byte-by-byte, so the writer/reader pair is host-endian independent.
 */

#include "trace_recorder.hh"

#include <cstddef>
#include <fstream>
#include <ostream>

#include "logging.hh"

namespace csb::sim {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'B', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kRecordSize = 32;
constexpr std::size_t kHeaderSize = 40;

void
putLe(std::uint8_t *out, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out[i] = std::uint8_t(v >> (8 * i));
}

std::uint64_t
getLe(const std::uint8_t *in, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint64_t(in[i]) << (8 * i);
    return v;
}

void
encodeRecord(const TraceRecord &rec, std::uint8_t out[kRecordSize])
{
    putLe(out + 0, rec.tick, 8);
    putLe(out + 8, rec.addr, 8);
    putLe(out + 16, rec.value, 8);
    putLe(out + 24, rec.pid, 4);
    out[28] = std::uint8_t(rec.op);
    out[29] = rec.cpu;
    out[30] = rec.size;
    out[31] = rec.flags;
}

TraceRecord
decodeRecord(const std::uint8_t in[kRecordSize])
{
    TraceRecord rec;
    rec.tick = getLe(in + 0, 8);
    rec.addr = getLe(in + 8, 8);
    rec.value = getLe(in + 16, 8);
    rec.pid = std::uint32_t(getLe(in + 24, 4));
    rec.op = TraceOp(in[28]);
    rec.cpu = in[29];
    rec.size = in[30];
    rec.flags = in[31];
    if (std::uint8_t(rec.op) > std::uint8_t(TraceOp::Membar))
        csb_fatal("CSBT record has unknown op ", unsigned(in[28]));
    return rec;
}

} // namespace

void
TraceRecorder::writeTo(std::ostream &os) const
{
    std::uint8_t header[kHeaderSize] = {};
    header[0] = kMagic[0];
    header[1] = kMagic[1];
    header[2] = kMagic[2];
    header[3] = kMagic[3];
    putLe(header + 4, kVersion, 4);
    putLe(header + 8, numCpus_, 4);
    putLe(header + 12, lineBytes_, 4);
    putLe(header + 16, kRecordSize, 4);
    putLe(header + 20, records_.size(), 8);
    // Bytes 28..39 are reserved, written as zero (v1 readers ignore).
    os.write(reinterpret_cast<const char *>(header), kHeaderSize);

    std::uint8_t buf[kRecordSize];
    for (const TraceRecord &rec : records_) {
        encodeRecord(rec, buf);
        os.write(reinterpret_cast<const char *>(buf), kRecordSize);
    }
    if (!os)
        csb_fatal("error writing CSBT stream");
}

void
TraceRecorder::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os.is_open())
        csb_fatal("cannot open trace file '", path, "' for writing");
    writeTo(os);
}

MemTrace
MemTrace::readFrom(std::istream &is)
{
    std::uint8_t header[kHeaderSize];
    is.read(reinterpret_cast<char *>(header), kHeaderSize);
    if (std::size_t(is.gcount()) != kHeaderSize)
        csb_fatal("CSBT stream truncated: header is ", is.gcount(),
                  " bytes, need ", kHeaderSize);
    if (header[0] != kMagic[0] || header[1] != kMagic[1] ||
        header[2] != kMagic[2] || header[3] != kMagic[3]) {
        csb_fatal("not a CSBT trace (bad magic)");
    }
    const auto version = std::uint32_t(getLe(header + 4, 4));
    if (version != kVersion)
        csb_fatal("unsupported CSBT version ", version, " (reader "
                  "implements version ", kVersion, ")");
    const auto record_size = std::uint32_t(getLe(header + 16, 4));
    if (record_size != kRecordSize)
        csb_fatal("CSBT header declares ", record_size,
                  "-byte records, version ", kVersion, " defines ",
                  kRecordSize);

    MemTrace trace;
    trace.numCpus_ = std::uint32_t(getLe(header + 8, 4));
    trace.lineBytes_ = std::uint32_t(getLe(header + 12, 4));
    const std::uint64_t count = getLe(header + 20, 8);

    trace.records_.reserve(count);
    std::uint8_t buf[kRecordSize];
    Tick last_tick = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        is.read(reinterpret_cast<char *>(buf), kRecordSize);
        if (std::size_t(is.gcount()) != kRecordSize)
            csb_fatal("CSBT stream truncated: header declares ", count,
                      " records, record ", i, " is incomplete");
        TraceRecord rec = decodeRecord(buf);
        if (rec.tick < last_tick)
            csb_fatal("CSBT stream corrupt: record ", i, " at tick ",
                      rec.tick, " after tick ", last_tick);
        last_tick = rec.tick;
        trace.records_.push_back(rec);
    }
    // Trailing garbage means the file was not produced by a compliant
    // writer; reject rather than silently ignore.
    if (is.peek() != std::istream::traits_type::eof())
        csb_fatal("CSBT stream has trailing bytes after the ", count,
                  " declared records");
    return trace;
}

MemTrace
MemTrace::loadFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open())
        csb_fatal("cannot open trace file '", path, "'");
    return readFrom(is);
}

MemTrace
MemTrace::fromRecorder(const TraceRecorder &rec)
{
    MemTrace trace;
    trace.numCpus_ = rec.numCpus();
    trace.lineBytes_ = rec.lineBytes();
    trace.records_ = rec.records();
    return trace;
}

std::vector<TraceRecord>
MemTrace::recordsForCpu(std::uint8_t cpu) const
{
    std::vector<TraceRecord> out;
    for (const TraceRecord &rec : records_) {
        if (rec.cpu == cpu)
            out.push_back(rec);
    }
    return out;
}

} // namespace csb::sim
