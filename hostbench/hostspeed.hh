/**
 * @file
 * Host-speed reference of the benchmark.
 *
 * The host the benchmark runs on is shared: its speed for
 * simulator-like code moves by up to 1.8x within minutes, with other
 * tenants' load (see README "Steadiness").  A run therefore times a
 * fixed reference kernel beside its ops -- short slices between them,
 * outside the op clock -- and reports every end-to-end time scaled by
 * how fast the reference ran at that moment:
 *
 *   normalized time = wall time * kNominalSliceSec / reference slice time
 *
 * where the reference slice time is the median of the slices nearest
 * in time.  The reference is this file's own code, not csbsim's, so a
 * csbsim change moves the normalized times exactly as it moves wall
 * time on a host of constant speed.
 *
 * The kernel does the kind of work the simulator does -- an event
 * queue, a hash map of small heap objects, indirect calls, allocation
 * and freeing -- because such code slows down with the host's phases
 * by about as much as csbsim does, while a pure ALU loop or a pointer
 * chase slows down by far less.
 */

#ifndef HOSTBENCH_HOSTSPEED_HH
#define HOSTBENCH_HOSTSPEED_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "spans.hh"

namespace hostbench {

class HostSpeed
{
  public:
    /**
     * Reference slice time that reads as factor 1.  A slice took
     * 1.1-1.5 ms on the host the benchmark was sized on, so normalized
     * times read about as wall times there.  Changing it rescales
     * every normalized time.
     */
    static constexpr double kNominalSliceSec = 0.0015;

    HostSpeed();

    /** Seconds since this object was built: the time base of factorAt(). */
    double now() const { return secondsSince(origin_); }

    /** Run one reference slice now and record its time. */
    void sample();

    /** Seconds since the end of the last slice (large before any). */
    double sinceLastSample() const;

    /**
     * Host-speed factor at time @p t (seconds since construction):
     * kNominalSliceSec over the median of the kNearest slices closest
     * to @p t.  Multiply a wall time taken around @p t by it.
     */
    double factorAt(double t) const;

    /** Median factor over every slice of the run. */
    double medianFactor() const;

    std::size_t samples() const { return samples_.size(); }

  private:
    static constexpr std::size_t kNearest = 9;

    /** One slice of the reference kernel; its wall time in seconds. */
    double runSlice();

    Clock::time_point origin_;
    /** (slice midpoint, slice seconds), in time order. */
    std::vector<std::pair<double, double>> samples_;
    double lastEnd_ = -1e9;
    std::uint64_t sink_ = 0;
};

} // namespace hostbench

#endif // HOSTBENCH_HOSTSPEED_HH
