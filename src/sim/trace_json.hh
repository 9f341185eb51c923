/**
 * @file
 * Chrome trace-event (chrome://tracing / Perfetto) JSON writer.
 *
 * A structured companion to the textual trace channels: components
 * emit duration spans (bus transactions, CSB line lifetimes, NI wire
 * occupancy) and instant events onto named tracks.  Events are
 * buffered in memory and written as one JSON document — sorted by
 * timestamp — when the trace is flushed.
 *
 * Enable from the environment:
 *
 *     CSBSIM_TRACE_JSON=out.json ./build/examples/quickstart
 *
 * then load out.json in chrome://tracing (or ui.perfetto.dev).  One
 * simulator tick is mapped to one microsecond of trace time.  Tests
 * can point the writer at any std::ostream with jsonEnable().
 */

#ifndef CSB_SIM_TRACE_JSON_HH
#define CSB_SIM_TRACE_JSON_HH

#include <atomic>
#include <ostream>
#include <string>
#include <vector>

#include "types.hh"

namespace csb::sim::trace {

/** One key/value argument attached to a trace event. */
struct SpanArg
{
    std::string key;
    std::string value;
};

namespace detail {
/** True until CSBSIM_TRACE_JSON is read, then true iff a sink is set. */
extern std::atomic<bool> jsonMaybeEnabled;
/** Read CSBSIM_TRACE_JSON if needed; @return whether a sink is set. */
bool jsonEnabledSlow();
} // namespace detail

/**
 * @return true when JSON tracing is active (a disabled call reads one
 * relaxed atomic; CSBSIM_TRACE_JSON is read once lazily).
 */
inline bool
jsonEnabled()
{
    return detail::jsonMaybeEnabled.load(std::memory_order_relaxed) &&
           detail::jsonEnabledSlow();
}

/** Direct JSON trace output to @p os (not owned); null disables. */
void jsonEnable(std::ostream *os);

/** Drop buffered events and disable JSON tracing. */
void jsonDisable();

/**
 * Sort buffered events by timestamp and write the trace document to
 * the active sink, then clear the buffer.  Called automatically at
 * process exit when a file sink from CSBSIM_TRACE_JSON is active.
 */
void jsonFlush();

/** Number of events currently buffered (for tests). */
std::size_t jsonPendingEvents();

/**
 * Record a duration span ("ph":"X") on track @p track.
 *
 * @param track logical timeline (becomes a tid row in the viewer).
 * @param name  span label, e.g. "write 64B".
 * @param start first tick covered by the span.
 * @param end   one past the work; clamped so duration is >= 1 tick.
 * @param args  optional key/value details shown on selection.
 */
void jsonSpan(const std::string &track, const std::string &name,
              Tick start, Tick end, std::vector<SpanArg> args = {});

/** Record an instant event ("ph":"i") at @p ts on track @p track. */
void jsonInstant(const std::string &track, const std::string &name,
                 Tick ts, std::vector<SpanArg> args = {});

/** Render @p addr as "0x..." for use in span args. */
std::string hexArg(Addr addr);

} // namespace csb::sim::trace

#endif // CSB_SIM_TRACE_JSON_HH
