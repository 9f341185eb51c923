/**
 * @file
 * CSBC v1 container serialization (see docs/CHECKPOINT.md for the
 * normative layout).  All integers are little-endian, encoded
 * byte-by-byte so the format is host-endian independent.
 */

#include "checkpoint.hh"

#include <fstream>
#include <ostream>

#include "logging.hh"

namespace csb::sim {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'B', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 24;

void
putLe(std::vector<std::uint8_t> &out, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

std::uint64_t
getLeBuf(const std::uint8_t *in, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint64_t(in[i]) << (8 * i);
    return v;
}

/** Read exactly @p n bytes or die describing what was expected. */
void
readExact(std::istream &is, std::uint8_t *buf, std::size_t n,
          const char *what)
{
    is.read(reinterpret_cast<char *>(buf), std::streamsize(n));
    if (std::size_t(is.gcount()) != n)
        csb_fatal("CSBC stream truncated while reading ", what,
                  " (wanted ", n, " bytes, got ", is.gcount(), ")");
}

} // namespace

void
CheckpointWriter::beginSection(const std::string &name)
{
    sections_.push_back(Section{name, {}});
}

void
CheckpointWriter::put(std::uint64_t v, unsigned bytes)
{
    csb_assert(!sections_.empty(),
               "CheckpointWriter::put before beginSection");
    putLe(sections_.back().payload, v, bytes);
}

void
CheckpointWriter::putBytes(const void *data, std::uint64_t size)
{
    put(size, 8);
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    auto &payload = sections_.back().payload;
    payload.insert(payload.end(), bytes, bytes + size);
}

void
CheckpointWriter::writeTo(std::ostream &os) const
{
    std::vector<std::uint8_t> header;
    header.reserve(kHeaderSize);
    for (char c : kMagic)
        header.push_back(std::uint8_t(c));
    putLe(header, kVersion, 4);
    putLe(header, sections_.size(), 8);
    putLe(header, 0, 8); // reserved
    os.write(reinterpret_cast<const char *>(header.data()),
             std::streamsize(header.size()));

    for (const Section &section : sections_) {
        std::vector<std::uint8_t> head;
        putLe(head, section.name.size(), 4);
        os.write(reinterpret_cast<const char *>(head.data()),
                 std::streamsize(head.size()));
        os.write(section.name.data(),
                 std::streamsize(section.name.size()));
        std::vector<std::uint8_t> len;
        putLe(len, section.payload.size(), 8);
        os.write(reinterpret_cast<const char *>(len.data()),
                 std::streamsize(len.size()));
        os.write(reinterpret_cast<const char *>(section.payload.data()),
                 std::streamsize(section.payload.size()));
    }
    if (!os)
        csb_fatal("error writing CSBC stream");
}

void
CheckpointWriter::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os.is_open())
        csb_fatal("cannot open checkpoint file '", path,
                  "' for writing");
    writeTo(os);
}

CheckpointReader
CheckpointReader::readFrom(std::istream &is)
{
    std::uint8_t header[kHeaderSize];
    readExact(is, header, kHeaderSize, "header");
    if (header[0] != std::uint8_t(kMagic[0]) ||
        header[1] != std::uint8_t(kMagic[1]) ||
        header[2] != std::uint8_t(kMagic[2]) ||
        header[3] != std::uint8_t(kMagic[3])) {
        csb_fatal("not a CSBC checkpoint (bad magic)");
    }
    const auto version = std::uint32_t(getLeBuf(header + 4, 4));
    if (version != kVersion)
        csb_fatal("unsupported CSBC version ", version, " (reader "
                  "implements version ", kVersion, ")");
    const std::uint64_t count = getLeBuf(header + 8, 8);

    CheckpointReader reader;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint8_t len4[4];
        readExact(is, len4, 4, "section name length");
        const auto name_len = std::uint32_t(getLeBuf(len4, 4));
        std::string name(name_len, '\0');
        if (name_len > 0) {
            readExact(is, reinterpret_cast<std::uint8_t *>(name.data()),
                      name_len, "section name");
        }
        std::uint8_t len8[8];
        readExact(is, len8, 8, "section payload length");
        const std::uint64_t payload_len = getLeBuf(len8, 8);
        Section section{std::move(name), {}};
        section.payload.resize(payload_len);
        if (payload_len > 0) {
            readExact(is, section.payload.data(), payload_len,
                      section.name.c_str());
        }
        reader.sections_.push_back(std::move(section));
    }
    if (is.peek() != std::istream::traits_type::eof())
        csb_fatal("CSBC stream has trailing bytes after the ", count,
                  " declared sections");
    return reader;
}

CheckpointReader
CheckpointReader::loadFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open())
        csb_fatal("cannot open checkpoint file '", path, "'");
    return readFrom(is);
}

bool
CheckpointReader::hasSection(const std::string &name) const
{
    for (const Section &section : sections_) {
        if (section.name == name)
            return true;
    }
    return false;
}

void
CheckpointReader::openSection(const std::string &name)
{
    for (std::size_t i = 0; i < sections_.size(); ++i) {
        if (sections_[i].name == name) {
            current_ = i;
            cursor_ = 0;
            return;
        }
    }
    csb_fatal("CSBC checkpoint lacks section '", name, "'");
}

void
CheckpointReader::closeSection()
{
    csb_assert(current_ != SIZE_MAX, "closeSection with none open");
    const Section &section = sections_[current_];
    if (cursor_ != section.payload.size())
        csb_fatal("CSBC section '", section.name, "' only consumed ",
                  cursor_, " of ", section.payload.size(), " bytes");
    current_ = SIZE_MAX;
    cursor_ = 0;
}

std::uint64_t
CheckpointReader::get(unsigned bytes)
{
    csb_assert(current_ != SIZE_MAX, "get before openSection");
    const Section &section = sections_[current_];
    if (cursor_ + bytes > section.payload.size())
        csb_fatal("CSBC section '", section.name, "' truncated: read "
                  "of ", bytes, " bytes at offset ", cursor_,
                  " exceeds payload of ", section.payload.size());
    const std::uint64_t v =
        getLeBuf(section.payload.data() + cursor_, bytes);
    cursor_ += bytes;
    return v;
}

std::span<const std::uint8_t>
CheckpointReader::getSpan()
{
    const std::uint64_t size = get(8);
    csb_assert(current_ != SIZE_MAX, "getBytes before openSection");
    const Section &section = sections_[current_];
    if (cursor_ + size > section.payload.size())
        csb_fatal("CSBC section '", section.name, "' truncated: byte "
                  "string of ", size, " bytes at offset ", cursor_,
                  " exceeds payload of ", section.payload.size());
    std::span<const std::uint8_t> out(section.payload.data() + cursor_,
                                      size);
    cursor_ += size;
    return out;
}

std::vector<std::uint8_t>
CheckpointReader::getBytes()
{
    std::span<const std::uint8_t> bytes = getSpan();
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

std::string_view
CheckpointReader::getStr()
{
    std::span<const std::uint8_t> bytes = getSpan();
    return std::string_view(reinterpret_cast<const char *>(bytes.data()),
                            bytes.size());
}

} // namespace csb::sim
