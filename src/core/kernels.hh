/**
 * @file
 * Generators for the paper's microbenchmark kernels (section 4.2).
 *
 * Register conventions used by all kernels:
 *   r1       I/O base pointer
 *   r2..r8   preset data values
 *   r9, r12  swap / expected-value registers
 *   r10      lock address, r11 lock value
 *
 * Marks: id 0 retires immediately before the measured sequence, id 1
 * immediately after it.
 */

#ifndef CSB_CORE_KERNELS_HH
#define CSB_CORE_KERNELS_HH

#include "isa/program.hh"
#include "sim/types.hh"

namespace csb::core {

/**
 * Uncached store bandwidth kernel: @p total_bytes of doubleword
 * stores to ascending addresses starting at @p base (the loop is
 * fully unrolled).  Used for every series of figures 3 and 4 except
 * the CSB one.
 */
isa::Program makeStoreKernel(Addr base, unsigned total_bytes);

/**
 * CSB store bandwidth kernel: for every cache-line group, the
 * expected-count setup, the group's doubleword stores, a conditional
 * flush, and the compare-and-retry check -- the code pattern of the
 * paper's SPARC listing in section 3.2.
 */
isa::Program makeCsbStoreKernel(Addr base, unsigned total_bytes,
                                unsigned line_bytes);

/**
 * Store bandwidth kernel with a SHUFFLED store order inside every
 * line (deterministic per @p seed).  Sequential-pattern hardware
 * combining (the R10000's) cannot coalesce this; the CSB does not
 * care ("combining stores can be issued in any order", section 3.2).
 */
isa::Program makeShuffledStoreKernel(Addr base, unsigned total_bytes,
                                     unsigned line_bytes,
                                     std::uint64_t seed);

/** CSB variant of the shuffled kernel (stores shuffled, then flush). */
isa::Program makeShuffledCsbStoreKernel(Addr base, unsigned total_bytes,
                                        unsigned line_bytes,
                                        std::uint64_t seed);

/**
 * The lock/access/unlock sequence of figure 5: spin-acquire via
 * cached atomic swap, @p n_dwords uncached stores to @p io_base, a
 * MEMBAR to drain the uncached buffer, then the lock release store.
 */
isa::Program makeLockedStoreKernel(Addr lock_addr, Addr io_base,
                                   unsigned n_dwords);

/**
 * The CSB atomic-access sequence of figure 5: @p n_dwords combining
 * stores followed by a conditional flush and the retry check.
 */
isa::Program makeCsbSequenceKernel(Addr csb_base, unsigned n_dwords);

/**
 * Like makeCsbStoreKernel, but with exponential backoff after failed
 * conditional flushes: the retry spins an empty delay loop whose
 * iteration count doubles on every consecutive failure, up to
 * @p max_backoff.  This is the livelock mitigation sketched in the
 * paper's section 3.2 ("use an exponential backoff algorithm to
 * reduce the likelihood of a conflict").
 */
isa::Program makeCsbStoreKernelWithBackoff(Addr base,
                                           unsigned total_bytes,
                                           unsigned line_bytes,
                                           unsigned max_backoff = 64);

/**
 * The paper's other livelock mitigation: "limit the number of failed
 * conditional flushes".  Each line group is attempted through the CSB
 * at most @p max_retries times; after that the kernel falls back to a
 * lock-protected sequence of plain uncached stores (to the uncached
 * alias of the same device window at @p fallback_base), which makes
 * progress under any scheduler because mutual exclusion -- not a
 * single-quantum window -- provides the atomicity.
 */
isa::Program makeCsbStoreKernelWithFallback(
    Addr csb_base, Addr fallback_base, Addr lock_addr,
    unsigned total_bytes, unsigned line_bytes, unsigned max_retries = 3);

} // namespace csb::core

#endif // CSB_CORE_KERNELS_HH
