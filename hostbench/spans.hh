/**
 * @file
 * In-memory span recorder of the host-speed benchmark.
 *
 * A span brackets one call into a csbsim layer (System construction,
 * run, destruction, a kernel generator, a checkpoint save, a litmus
 * case...).  Spans are recorded from the benchmark's own code, around
 * the public calls; nothing inside the simulator is instrumented.
 * Each span keeps its name, start and end (steady_clock ns since the
 * recorder was built), the index of the enclosing span and the op it
 * belongs to.  They stay in memory and are written out once, at exit.
 *
 * A disabled recorder costs one branch per scope.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p since. */
inline double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

struct Span
{
    /** Layer-qualified name, e.g. "core.build"; a string literal. */
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 for an op's root span. */
    std::int32_t parent = -1;
    std::uint64_t op = 0;
};

class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Op id stamped on the spans opened from now on. */
    void setOp(std::uint64_t op) { op_ = op; }

    /** RAII span: opened by the constructor, closed by the destructor. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        std::int32_t index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per span name, in ns: each span's duration minus the
     * durations of its direct children (spans nest strictly because
     * the benchmark is single-threaded).
     */
    std::map<std::string, double> selfTimeNs() const;

    /** Write every span as a JSON array; false when @p path fails. */
    bool writeJson(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    Clock::time_point origin_;
    bool enabled_ = false;
    std::uint64_t op_ = 0;
    std::int32_t open_ = -1;
    std::vector<Span> spans_;
};

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
