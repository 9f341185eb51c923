/**
 * @file
 * Bus transaction descriptors shared by masters and targets.
 */

#ifndef CSB_BUS_TRANSACTION_HH
#define CSB_BUS_TRANSACTION_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace csb::bus {

/** Kind of bus tenure. */
enum class TxnKind : std::uint8_t {
    Write,      ///< address + write data from the master
    ReadReq,    ///< address only; data returns in a ReadResp tenure
    ReadResp,   ///< data tenure driven by the target
};

const char *txnKindName(TxnKind kind);

/**
 * Completion status delivered to the master with its callback.
 * Nack means the target (or the fault injector) refused the transfer
 * and the master should retry with backoff; Error is non-retryable
 * (e.g. an unmapped address with error responses enabled).
 */
enum class BusStatus : std::uint8_t {
    Ok,
    Nack,
    Error,
};

const char *busStatusName(BusStatus status);

/**
 * One bus transaction.  Sizes are powers of two between one byte and
 * the maximum burst (cache line) and must be naturally aligned; the
 * bus enforces both (paper section 4.1).
 */
struct BusTransaction
{
    TxnKind kind = TxnKind::Write;
    /** Completion status (set by the bus before callbacks fire). */
    BusStatus status = BusStatus::Ok;
    MasterId master = 0;
    unsigned size = 0;
    Addr addr = 0;
    /**
     * Strongly ordered (uncached) transactions may not have their
     * address cycle issued before the previous strongly ordered
     * transaction of the same master has been positively acknowledged
     * (ackDelay bus cycles after its address cycle).
     */
    bool stronglyOrdered = false;
    /**
     * The payload is a snapshot of bytes that are already current in
     * the functional memory image (a cache-line spill: the tag model
     * tracks dirtiness, but stores commit to PhysicalMemory directly).
     * Functional targets must NOT re-apply such a payload -- it may be
     * older than stores committed while the transaction was queued or
     * retried -- but timing, stats and traces treat it as any write.
     */
    bool snapshotPayload = false;
    /**
     * Write payload / read result.  A target's write() may move the
     * payload out (a device log keeps it without a copy); otherwise it
     * travels back to the master with the completion.
     */
    std::vector<std::uint8_t> data;
};

} // namespace csb::bus

#endif // CSB_BUS_TRANSACTION_HH
