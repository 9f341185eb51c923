/**
 * @file
 * CSBT v1 serialization (see docs/TRACE_FORMAT.md for the normative
 * layout).  All multi-byte fields are little-endian and are encoded
 * byte-by-byte, so the output is host-endian independent.
 */

#include "trace_recorder.hh"

#include <cstddef>
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

} // namespace csb::sim
