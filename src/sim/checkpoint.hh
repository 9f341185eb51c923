/**
 * @file
 * Simulator checkpoint container and the CSBC on-disk format.
 *
 * A checkpoint is an ordered sequence of named sections, one per
 * serialized component ("sim", "mem", "cpu0.arch", ...), each holding
 * an opaque little-endian payload written and read with the typed
 * accessors below.  The container layout (magic "CSBC", version 1) is
 * specified normatively in docs/CHECKPOINT.md.
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
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "types.hh"

namespace csb::sim {

/** Builds a CSBC checkpoint section by section. */
class CheckpointWriter
{
  public:
    /** Open a new section; typed puts append to it until the next. */
    void beginSection(const std::string &name);

    void putU8(std::uint8_t v) { put(v, 1); }
    void putU32(std::uint32_t v) { put(v, 4); }
    void putU64(std::uint64_t v) { put(v, 8); }
    void putF64(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }

    /** Length-prefixed byte string. */
    void putBytes(const void *data, std::uint64_t size);

    /** Length-prefixed UTF-8 string. */
    void
    putStr(std::string_view s)
    {
        putBytes(s.data(), s.size());
    }

    /** Serialize every section as CSBC v1 to @p os. */
    void writeTo(std::ostream &os) const;

    /** Serialize to @p path; throws FatalError when unwritable. */
    void writeFile(const std::string &path) const;

    std::size_t numSections() const { return sections_.size(); }

  private:
    struct Section
    {
        std::string name;
        std::vector<std::uint8_t> payload;
    };

    void put(std::uint64_t v, unsigned bytes);

    std::vector<Section> sections_;
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

    bool hasSection(const std::string &name) const;

    /** Position the cursor at section @p name; fatal when absent. */
    void openSection(const std::string &name);

    /** Assert the open section was consumed exactly, then leave it. */
    void closeSection();

    std::uint8_t getU8() { return std::uint8_t(get(1)); }
    std::uint32_t getU32() { return std::uint32_t(get(4)); }
    std::uint64_t getU64() { return get(8); }
    double getF64() { return std::bit_cast<double>(get(8)); }

    /** Read a length-prefixed byte string. */
    std::vector<std::uint8_t> getBytes();

    /**
     * Read a length-prefixed UTF-8 string.  The view points into the
     * reader's copy of the section and lives as long as the reader.
     */
    std::string_view getStr();

    std::size_t numSections() const { return sections_.size(); }

  private:
    struct Section
    {
        std::string name;
        std::vector<std::uint8_t> payload;
    };

    std::uint64_t get(unsigned bytes);
    /** The next length-prefixed byte string, in place. */
    std::span<const std::uint8_t> getSpan();

    std::vector<Section> sections_;
    std::size_t current_ = SIZE_MAX;
    std::size_t cursor_ = 0;
};

} // namespace csb::sim

#endif // CSB_SIM_CHECKPOINT_HH
