/**
 * @file
 * Simulator checkpoint container and the CSBC on-disk format.
 *
 * A checkpoint is an ordered sequence of named sections, one per
 * serialized component ("sim", "mem", "cpu0.arch", ...), each holding
 * an opaque little-endian payload written and read with the typed
 * accessors below.  The container layout (magic "CSBC", version 2) is
 * specified normatively in docs/CHECKPOINT.md.
 *
 * The writer builds the whole CSBC image in one byte vector; the
 * reader parses one into a single buffer and serves every section as
 * a span of it.  The typed puts and gets are inline fixed-width
 * little-endian stores and loads.
 *
 * The reader is strict by construction: opening a missing section,
 * reading past a section's end, or closing a section before consuming
 * every payload byte throws FatalError.  Component save/restore code
 * is therefore self-checking -- any drift between the writer and the
 * reader of a section fails loudly instead of silently misaligning
 * every following field.
 *
 * Checkpoints are taken only at quiescent boundaries
 * (core::System::saveCheckpoint) and restored only into a freshly
 * constructed, identically configured system; a config fingerprint
 * section enforces the latter.
 */

#ifndef CSB_SIM_CHECKPOINT_HH
#define CSB_SIM_CHECKPOINT_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "types.hh"

namespace csb::sim {

namespace detail {

/** @p v between host and little-endian byte order (an involution). */
template <class T>
constexpr T
littleEndian(T v)
{
    if constexpr (std::endian::native == std::endian::little ||
                  sizeof(T) == 1) {
        return v;
    } else {
        T out = 0;
        for (unsigned i = 0; i < sizeof(T); ++i)
            out = T(out << 8) | T((v >> (8 * i)) & 0xff);
        return out;
    }
}

template <class T>
void
storeLe(std::uint8_t *at, T v)
{
    v = littleEndian(v);
    std::memcpy(at, &v, sizeof(T));
}

template <class T>
T
loadLe(const std::uint8_t *at)
{
    T v;
    std::memcpy(&v, at, sizeof(T));
    return littleEndian(v);
}

} // namespace detail

/**
 * Builds a CSBC checkpoint section by section, as one image: the
 * header, then per section its name, its length (kept current with
 * every put) and its payload.  The image is a complete CSBC stream
 * after every call.
 */
class CheckpointWriter
{
  public:
    /** Start the image with its header and no sections. */
    CheckpointWriter() { clear(); }

    /** Drop every section, keeping the image's storage for reuse. */
    void clear();

    /** Open a new section; typed puts append to it until the next. */
    void beginSection(std::string_view name);

    void putU8(std::uint8_t v) { putLe(v); }
    void putU32(std::uint32_t v) { putLe(v); }
    void putU64(std::uint64_t v) { putLe(v); }
    void putF64(double v) { putLe(std::bit_cast<std::uint64_t>(v)); }

    /** Length-prefixed byte string. */
    void putBytes(const void *data, std::uint64_t size);

    /** Length-prefixed UTF-8 string. */
    void
    putStr(std::string_view s)
    {
        putBytes(s.data(), s.size());
    }

    /** The CSBC image; invalidated by the next put or section. */
    std::span<const std::uint8_t> image() const { return image_; }

    /** Write the image to @p os; throws FatalError on a write error. */
    void writeTo(std::ostream &os) const;

    /** Write the image to @p path; throws FatalError when unwritable. */
    void writeFile(const std::string &path) const;

    std::size_t numSections() const { return sections_; }

  private:
    /** Append @p n zero bytes to the open section; @return the first. */
    std::uint8_t *
    grow(std::size_t n)
    {
        if (lengthAt_ == 0)
            putBeforeSection();
        const std::size_t at = image_.size();
        image_.resize(at + n);
        detail::storeLe(image_.data() + lengthAt_,
                        std::uint64_t(image_.size() - lengthAt_ - 8));
        return image_.data() + at;
    }

    template <class T>
    void
    putLe(T v)
    {
        detail::storeLe(grow(sizeof(T)), v);
    }

    [[noreturn]] static void putBeforeSection();

    std::vector<std::uint8_t> image_;
    /** Offset of the open section's length field; 0 before the first
     *  section (the header occupies offset 0). */
    std::size_t lengthAt_ = 0;
    std::size_t sections_ = 0;
};

/**
 * Parses a CSBC checkpoint and serves sections to component restore
 * code.  Every accessor validates bounds; closeSection() additionally
 * demands the payload was consumed exactly, so a component that reads
 * less (or more) than its saver wrote fails immediately.
 */
class CheckpointReader
{
  public:
    /** Parse a CSBC stream; throws FatalError on malformed input. */
    static CheckpointReader readFrom(std::istream &is);

    /** Parse the CSBC file at @p path; throws FatalError on error. */
    static CheckpointReader loadFile(const std::string &path);

    /** Parse a copy of the CSBC @p image (CheckpointWriter::image). */
    static CheckpointReader fromImage(std::span<const std::uint8_t> image);

    /** Sections view the reader's buffer: move it, never copy it. */
    CheckpointReader(CheckpointReader &&) = default;
    CheckpointReader &operator=(CheckpointReader &&) = default;

    /** Position the cursor at section @p name; fatal when absent. */
    void openSection(std::string_view name);

    /** Assert the open section was consumed exactly, then leave it. */
    void closeSection();

    std::uint8_t getU8() { return getLe<std::uint8_t>(); }
    std::uint32_t getU32() { return getLe<std::uint32_t>(); }
    std::uint64_t getU64() { return getLe<std::uint64_t>(); }
    double getF64() { return std::bit_cast<double>(getU64()); }

    /**
     * Read a length-prefixed byte string.  The span points into the
     * reader's buffer and lives as long as the reader.
     */
    std::span<const std::uint8_t> getBytes();

    /** Read a length-prefixed UTF-8 string, viewed like getBytes(). */
    std::string_view
    getStr()
    {
        std::span<const std::uint8_t> bytes = getBytes();
        return {reinterpret_cast<const char *>(bytes.data()), bytes.size()};
    }

    std::size_t numSections() const { return sections_.size(); }

  private:
    struct Section
    {
        std::string_view name;
        std::span<const std::uint8_t> payload;
    };

    CheckpointReader() = default;

    /** Split image_ into sections, checking every declared length. */
    void parse();

    /** Consume @p n bytes of the open section; @return the first. */
    const std::uint8_t *
    take(std::uint64_t n, const char *what)
    {
        if (n > payload_.size() - cursor_)
            overrun(n, what);
        const std::uint8_t *at = payload_.data() + cursor_;
        cursor_ += n;
        return at;
    }

    template <class T>
    T
    getLe()
    {
        return detail::loadLe<T>(take(sizeof(T), "read"));
    }

    [[noreturn]] void overrun(std::uint64_t n, const char *what) const;

    std::vector<std::uint8_t> image_;
    std::vector<Section> sections_;
    /** The open section and its payload; null and empty while none. */
    const Section *open_ = nullptr;
    std::span<const std::uint8_t> payload_;
    std::size_t cursor_ = 0;
};

} // namespace csb::sim

#endif // CSB_SIM_CHECKPOINT_HH
