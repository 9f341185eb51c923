/**
 * @file
 * CSBC container serialization (see docs/CHECKPOINT.md for the
 * normative layout).  All integers are little-endian whatever the
 * host byte order.
 */

#include "checkpoint.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "logging.hh"

namespace csb::sim {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'B', 'C'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = 24;
/** Header offset of the section count. */
constexpr std::size_t kCountAt = 8;
/**
 * Room the first save reserves.  It was sized for images of 160-315 KB,
 * 148 KB per core of them cache records; with only live cache sets
 * saved, the pinned images are 11-18 KB and hostbench's nic_messages
 * images average 35 KB, so a save never regrows it.  Shrinking it is
 * a separate, measured change: nic_messages' peak RSS follows glibc's
 * mmap threshold, which a 256 KiB block crosses and a smaller one may
 * not.
 */
constexpr std::size_t kInitialCapacity = std::size_t(256) << 10;

} // namespace

void
CheckpointWriter::clear()
{
    image_.reserve(kInitialCapacity);
    image_.assign(kHeaderSize, 0); // count and reserved stay zero for now
    std::memcpy(image_.data(), kMagic, sizeof(kMagic));
    detail::storeLe(image_.data() + 4, kVersion);
    lengthAt_ = 0;
    sections_ = 0;
}

void
CheckpointWriter::putBeforeSection()
{
    csb_panic("CheckpointWriter put before beginSection");
}

void
CheckpointWriter::beginSection(std::string_view name)
{
    detail::storeLe(image_.data() + kCountAt, std::uint64_t(++sections_));
    const std::size_t at = image_.size();
    image_.resize(at + 4 + name.size() + 8); // the length starts at 0
    detail::storeLe(image_.data() + at, std::uint32_t(name.size()));
    std::copy(name.begin(), name.end(), image_.data() + at + 4);
    lengthAt_ = at + 4 + name.size();
}

void
CheckpointWriter::putBytes(const void *data, std::uint64_t size)
{
    putU64(size);
    if (size > 0)
        std::memcpy(grow(size), data, size);
}

void
CheckpointWriter::writeTo(std::ostream &os) const
{
    os.write(reinterpret_cast<const char *>(image_.data()),
             std::streamsize(image_.size()));
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
    // Read to the end in large chunks: the first asks for everything
    // the stream buffer already holds (a string stream's whole
    // contents), later ones double.
    CheckpointReader reader;
    std::vector<std::uint8_t> &image = reader.image_;
    std::size_t chunk = std::max<std::streamsize>(
        is.rdbuf()->in_avail() + 1, std::streamsize(1) << 16);
    for (;;) {
        const std::size_t at = image.size();
        image.resize(at + chunk);
        is.read(reinterpret_cast<char *>(image.data() + at),
                std::streamsize(chunk));
        image.resize(at + std::size_t(is.gcount()));
        if (std::size_t(is.gcount()) < chunk)
            break;
        chunk *= 2;
    }
    if (is.bad())
        csb_fatal("error reading CSBC stream");
    reader.parse();
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

CheckpointReader
CheckpointReader::fromImage(std::span<const std::uint8_t> image)
{
    CheckpointReader reader;
    reader.image_.assign(image.begin(), image.end());
    reader.parse();
    return reader;
}

void
CheckpointReader::parse()
{
    const std::uint8_t *next = image_.data();
    std::uint64_t left = image_.size();
    // Every length is checked against the bytes actually left before
    // it is used, so a corrupt one fails here, naming what it sized.
    auto take = [&](std::uint64_t n, auto &&...what) {
        if (n > left)
            csb_fatal("CSBC stream truncated while reading ", what...,
                      " (wanted ", n, " bytes, ", left, " left)");
        const std::uint8_t *at = next;
        next += n;
        left -= n;
        return at;
    };

    const std::uint8_t *header = take(kHeaderSize, "header");
    if (!std::equal(kMagic, kMagic + 4, header))
        csb_fatal("not a CSBC checkpoint (bad magic)");
    const auto version = detail::loadLe<std::uint32_t>(header + 4);
    if (version != kVersion)
        csb_fatal("unsupported CSBC version ", version, " (this reader "
                  "implements version ", kVersion, " only)");
    const auto count = detail::loadLe<std::uint64_t>(header + kCountAt);

    for (std::uint64_t i = 0; i < count; ++i) {
        const auto name_len = detail::loadLe<std::uint32_t>(
            take(4, "the name length of section ", i));
        const std::string_view name(
            reinterpret_cast<const char *>(take(name_len, "section name")),
            name_len);
        const auto payload_len = detail::loadLe<std::uint64_t>(
            take(8, "the payload length of section '", name, "'"));
        const std::uint8_t *payload =
            take(payload_len, "section '", name, "'");
        sections_.push_back(Section{name, {payload, payload_len}});
    }
    if (left > 0)
        csb_fatal("CSBC stream has trailing bytes after the ", count,
                  " declared sections");
}

void
CheckpointReader::openSection(std::string_view name)
{
    for (const Section &section : sections_) {
        if (section.name == name) {
            open_ = &section;
            payload_ = section.payload;
            cursor_ = 0;
            return;
        }
    }
    csb_fatal("CSBC checkpoint lacks section '", name, "'");
}

void
CheckpointReader::closeSection()
{
    csb_assert(open_, "closeSection with none open");
    if (cursor_ != payload_.size())
        csb_fatal("CSBC section '", open_->name, "' only consumed ",
                  cursor_, " of ", payload_.size(), " bytes");
    open_ = nullptr;
    payload_ = {};
    cursor_ = 0;
}

void
CheckpointReader::overrun(std::uint64_t n, const char *what) const
{
    csb_assert(open_, "CheckpointReader ", what, " before openSection");
    csb_fatal("CSBC section '", open_->name, "' truncated: ", what,
              " of ", n, " bytes at offset ", cursor_,
              " exceeds payload of ", payload_.size());
}

std::span<const std::uint8_t>
CheckpointReader::getBytes()
{
    const std::uint64_t size = getU64();
    return {take(size, "byte string"), size};
}

} // namespace csb::sim
