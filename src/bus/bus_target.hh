/**
 * @file
 * Interface implemented by bus targets (memory, I/O devices).
 */

#ifndef CSB_BUS_BUS_TARGET_HH
#define CSB_BUS_BUS_TARGET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "transaction.hh"

namespace csb::bus {

/**
 * A slave on the system bus.  Targets see writes when the last data
 * cycle completes, and serve reads with a device-specific latency.
 */
class BusTarget
{
  public:
    virtual ~BusTarget() = default;

    /** @return name used in traces and stats. */
    virtual const std::string &targetName() const = 0;

    /**
     * Flow control: asked at completion (writes) or at the end of the
     * address cycle (reads) whether the target takes the transaction.
     * Returning Nack tells the master to retry with backoff; Error is
     * non-retryable.  The default always accepts, so ordinary targets
     * need not care.
     */
    virtual BusStatus accept(const BusTransaction &txn, Tick now)
    {
        (void)txn;
        (void)now;
        return BusStatus::Ok;
    }

    /**
     * A write transaction has fully transferred.
     * @param txn  the completed transaction (data included); the
     *             target may move txn.data out, the bus does not read
     *             it again
     * @param now  CPU tick of completion
     */
    virtual void write(BusTransaction &txn, Tick now) = 0;

    /**
     * Serve a read.  Called at the end of the address cycle.
     * @param txn  the request (addr/size)
     * @param now  CPU tick of the address cycle end
     * @param data out: txn.size bytes
     * @return device latency in CPU ticks until the data is ready to
     *         be driven back on the bus
     */
    virtual Tick read(const BusTransaction &txn, Tick now,
                      std::vector<std::uint8_t> &data) = 0;
};

} // namespace csb::bus

#endif // CSB_BUS_BUS_TARGET_HH
