/**
 * @file
 * Memory-reference trace capture and the CSBT on-disk format.
 *
 * A TraceRecorder collects every data reference the core issues to
 * the memory system -- tick, cpu, context, operation, address, size,
 * data value and phase flags -- in issue order, and serializes the
 * stream to the versioned little-endian binary format specified
 * normatively in docs/TRACE_FORMAT.md (magic "CSBT", version 1, fixed
 * 32-byte records).
 *
 * Records appear in global issue order: ticks are monotonically
 * non-decreasing and, within a tick, event-phase records precede
 * clocked-phase records, matching the simulator's events-then-clocked
 * tick structure.  Each litmus repro pins its case's stream
 * (docs/LITMUS.md).
 */

#ifndef CSB_SIM_TRACE_RECORDER_HH
#define CSB_SIM_TRACE_RECORDER_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "types.hh"

namespace csb::sim {

/** Operation kind of one recorded data reference. */
enum class TraceOp : std::uint8_t {
    CachedLoad = 0,      ///< speculative cached load (value = TLB penalty)
    CachedStore = 1,     ///< cached store at commit (value = store data)
    CachedSwapStart = 2, ///< cached SWAP issue (value = new data)
    SwapMemWrite = 3,    ///< memory write inside a SWAP completion
    UncachedLoad = 4,    ///< uncached load pushed to the uncached buffer
    UncachedStore = 5,   ///< uncached store pushed to the uncached buffer
    CsbStore = 6,        ///< combining store accepted by the CSB
    CsbFlush = 7,        ///< conditional flush (value = expected hit count)
    Membar = 8,          ///< MEMBAR retired with buffers drained
};

/** Flag bits of TraceRecord::flags. */
enum TraceFlags : std::uint8_t {
    /**
     * The reference was issued from the event phase of its tick (a
     * latency callback), not from the core's clocked evaluation.
     * Components at negative eval order observe event-phase state a
     * tick earlier than clocked-phase state.
     */
    TraceFlagEventPhase = 1u << 0,
    /** The reference is one half of a SWAP read-modify-write. */
    TraceFlagSwap = 1u << 1,
    /** Bits 2-3 carry the mem::PageAttr of the referenced page. */
    TraceFlagAttrShift = 2,
    TraceFlagAttrMask = 0x3u << TraceFlagAttrShift,
};

/** One recorded data reference; fixed 32-byte on-disk layout. */
struct TraceRecord
{
    Tick tick = 0;           ///< CPU tick
    Addr addr = 0;           ///< physical address
    std::uint64_t value = 0; ///< op-dependent payload (see TraceOp)
    std::uint32_t pid = 0;   ///< issuing context's process id
    TraceOp op = TraceOp::CachedLoad;
    std::uint8_t cpu = 0;    ///< issuing core index
    std::uint8_t size = 0;   ///< access size in bytes
    std::uint8_t flags = 0;  ///< TraceFlags bit set

    bool
    operator==(const TraceRecord &) const = default;
};

/**
 * Collects the reference stream of one run and writes it as CSBT.
 *
 * One recorder serves every core of a system; cores stamp their own
 * index into each record.  Appending is O(1) amortized; the recorder
 * never reorders (the simulator's tick loop already delivers records
 * in the canonical order the format requires).
 */
class TraceRecorder
{
  public:
    /**
     * @param num_cpus  cores feeding this recorder (header field)
     * @param line_bytes cache-line size of the recorded system
     *        (header field)
     */
    explicit TraceRecorder(std::uint32_t num_cpus = 1,
                           std::uint32_t line_bytes = 64)
        : numCpus_(num_cpus), lineBytes_(line_bytes)
    {}

    /** Append one reference in issue order. */
    void append(const TraceRecord &rec) { records_.push_back(rec); }

    const std::vector<TraceRecord> &records() const { return records_; }
    std::uint32_t numCpus() const { return numCpus_; }

    /** Serialize the stream as CSBT v1 to @p os. */
    void writeTo(std::ostream &os) const;

  private:
    std::uint32_t numCpus_;
    std::uint32_t lineBytes_;
    std::vector<TraceRecord> records_;
};

} // namespace csb::sim

#endif // CSB_SIM_TRACE_RECORDER_HH
