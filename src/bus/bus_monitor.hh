/**
 * @file
 * Bus instrumentation: per-transaction records and the paper's
 * effective-bandwidth metric (bytes per bus cycle, measured from the
 * first address cycle to the last data cycle; a trailing turnaround
 * cycle is not charged -- section 4.3.1).
 */

#ifndef CSB_BUS_BUS_MONITOR_HH
#define CSB_BUS_BUS_MONITOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"
#include "transaction.hh"

namespace csb::sim {
class CheckpointWriter;
class CheckpointReader;
} // namespace csb::sim

namespace csb::bus {

/** Records every completed transaction; supports measurement windows. */
class BusMonitor
{
  public:
    /** Append a completed-transaction record. */
    void record(const TxnRecord &rec) { records_.push_back(rec); }

    /** Forget all records (start a fresh measurement window). */
    void clear() { records_.clear(); }

    const std::vector<TxnRecord> &records() const { return records_; }

    /**
     * The section 4.3.1 measurement window of the matching records, in
     * bus cycles: from the first address cycle to the last data cycle,
     * both included, so a trailing turnaround cycle is not charged.
     * Effective bandwidth is the bytes moved divided by this.
     * @return 0 when no record matches.
     */
    std::uint64_t windowCycles(
        const std::function<bool(const TxnRecord &)> &pred = {}) const;

    /**
     * Serialize all transaction records so bandwidth measurements
     * spanning a checkpoint boundary match an uninterrupted run.
     * Restore requires an empty monitor.
     */
    void checkpointSave(sim::CheckpointWriter &cw) const;
    void checkpointRestore(sim::CheckpointReader &cr);

  private:
    std::vector<TxnRecord> records_;
};

} // namespace csb::bus

#endif // CSB_BUS_BUS_MONITOR_HH
