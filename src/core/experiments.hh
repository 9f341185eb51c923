/**
 * @file
 * Experiment runners regenerating every figure of the paper's
 * evaluation (section 4.3), plus the section 5 PIO-vs-DMA study.
 *
 * Figures 3 and 4 report effective uncached-store bandwidth in bytes
 * per bus cycle (y) against transfer size in bytes (x) for a set of
 * combining schemes; figure 5 reports CPU cycles per atomic I/O
 * access sequence.  The runners build a fresh System per data point
 * so schemes never share warmed state.
 */

#ifndef CSB_CORE_EXPERIMENTS_HH
#define CSB_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "bus/system_bus.hh"
#include "sweep.hh"
#include "system_config.hh"

namespace csb::core {

/** Uncached-store handling scheme (one bar group in figures 3/4). */
enum class Scheme
{
    NoCombine,
    Combine16,
    Combine32,
    Combine64,
    Combine128,
    Csb,
};

/** Short display name, e.g. "comb-32". */
std::string schemeName(Scheme scheme);

/** Combining block size of a scheme; 0 for NoCombine and Csb. */
unsigned schemeCombineBytes(Scheme scheme);

/** NoCombine, every combine size up to @p line_bytes, then Csb. */
std::vector<Scheme> schemesForLine(unsigned line_bytes);

/** Shared setup of one bandwidth panel. */
struct BandwidthSetup
{
    bus::BusParams bus;
    unsigned lineBytes = 64;
};

/** The paper's transfer-size axis: 16 B .. 1 KiB. */
std::vector<unsigned> defaultTransferSizes();

/**
 * The SystemConfig every point of @p setup runs with under @p scheme
 * (bandwidth and sequence timing).
 */
SystemConfig bandwidthConfig(const BandwidthSetup &setup, Scheme scheme);

/**
 * Run the store-bandwidth microbenchmark for one (scheme, size)
 * point.  @return useful bytes per bus cycle on the I/O path.
 */
double measureStoreBandwidth(const BandwidthSetup &setup, Scheme scheme,
                             unsigned transfer_bytes);

/** One panel of figure 3 or 4. */
struct BandwidthSweep
{
    std::string title;
    std::vector<unsigned> sizes;
    std::vector<Scheme> schemes;
    /** bandwidth[scheme index][size index], bytes per bus cycle. */
    std::vector<std::vector<double>> bandwidth;
};

/**
 * Run a full scheme x size sweep for one panel.  Every grid point is
 * an independent Simulator run dispatched through @p runner; results
 * land in the matrix by grid index, so the sweep is byte-identical
 * for any job count.
 */
BandwidthSweep runBandwidthSweep(SweepRunner &runner,
                                 const std::string &title,
                                 const BandwidthSetup &setup,
                                 const std::vector<Scheme> &schemes,
                                 const std::vector<unsigned> &sizes);

/** Print a sweep as the paper-style series table. */
void printSweep(const BandwidthSweep &sweep, std::ostream &os);

// --- Figure 5 -------------------------------------------------------

/**
 * Measure the lock/access/unlock sequence (figure 5) in CPU cycles.
 * @param scheme    uncached-buffer combining scheme for the stores
 * @param n_dwords  stores inside the critical section (2..8)
 * @param lock_miss when true the lock line misses all caches
 */
double measureLockedSequence(const BandwidthSetup &setup, Scheme scheme,
                             unsigned n_dwords, bool lock_miss);

/** Measure the CSB atomic sequence (figure 5) in CPU cycles. */
double measureCsbSequence(const BandwidthSetup &setup, unsigned n_dwords);

/** One panel of figure 5. */
struct LatencySweep
{
    std::string title;
    std::vector<unsigned> dwords;
    std::vector<Scheme> schemes; ///< locking schemes; Csb means the CSB
    std::vector<std::vector<double>> cycles;
};

/** Run one figure 5 panel, grid points dispatched through @p runner. */
LatencySweep runLatencySweep(SweepRunner &runner, const std::string &title,
                             const BandwidthSetup &setup, bool lock_miss);

void printLatencySweep(const LatencySweep &sweep, std::ostream &os);

// --- Section 5 extension: PIO vs DMA crossover ----------------------

/** Result of one message-send latency measurement. */
struct MessageLatency
{
    unsigned bytes = 0;
    double pioLockedCycles = 0;  ///< PIO send under a lock
    double pioCsbCycles = 0;     ///< PIO send through the CSB
    double dmaCycles = 0;        ///< descriptor push + DMA fetch
};

/**
 * Measure send-side message latency (store start to last payload byte
 * handed to the NI wire) for the three mechanisms.
 */
MessageLatency measureMessageLatency(const BandwidthSetup &setup,
                                     unsigned payload_bytes);

} // namespace csb::core

#endif // CSB_CORE_EXPERIMENTS_HH
