/**
 * @file
 * Debug tracing with named channels, gem5 DPRINTF style.
 *
 * Channels are registered lazily by name ("cpu", "csb", "bus", ...).
 * They are disabled by default; enable programmatically with
 * trace::enable("csb") or from the environment:
 *
 *     CSBSIM_TRACE=csb,bus ./build/examples/quickstart
 *     CSBSIM_TRACE=all     ./build/tests/cpu_test_core_basic
 *
 * Each line is prefixed with the current tick and the channel name:
 *
 *     [    1234] csb: store pid=1 addr=0x22000000 counter=3
 *
 * The tick source is registered once by the owning Simulator (or any
 * clock authority); without one, ticks print as '-'.
 *
 * A disabled call costs one relaxed atomic load: enabled() and log()
 * are inline and consult an "any channel may be on" flag before any
 * out-of-line call, and log() formats its arguments only inside the
 * enabled branch.  The flag starts set so that the first call still
 * reads CSBSIM_TRACE lazily.
 */

#ifndef CSB_SIM_TRACE_HH
#define CSB_SIM_TRACE_HH

#include <atomic>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "types.hh"

namespace csb::sim::trace {

namespace detail {
/**
 * False only once CSBSIM_TRACE has been read and no channel is on;
 * true while the environment is unread or any channel is enabled.
 */
extern std::atomic<bool> maybeEnabled;

/** Load the environment if needed, then look @p name up. */
bool enabledSlow(std::string_view name);

void emit(std::string_view channel, const std::string &message);
} // namespace detail

/** @return true when channel @p name is enabled (cheap check). */
inline bool
enabled(std::string_view name)
{
    return detail::maybeEnabled.load(std::memory_order_relaxed) &&
           detail::enabledSlow(name);
}

/** Enable a channel ("all" enables everything). */
void enable(const std::string &name);

/** Disable a channel ("all" clears everything). */
void disable(const std::string &name);

/** Redirect trace output (default: std::cerr).  Not owned. */
void setOutput(std::ostream *os);

/**
 * Install the tick source used for line prefixes.  The source is
 * thread-local: every Simulator registers itself on the thread it is
 * constructed on, so concurrent sweep workers each stamp lines with
 * their own simulator's ticks.
 */
void setTickSource(std::function<Tick()> source);

/**
 * Log to a channel.  Arguments are streamed; their operator<< runs
 * only when the channel is enabled.
 */
template <typename... Args>
void
log(std::string_view channel, Args &&...args)
{
    if (!enabled(channel))
        return;
    std::ostringstream os;
    (os << ... << args);
    detail::emit(channel, os.str());
}

} // namespace csb::sim::trace

#endif // CSB_SIM_TRACE_HH
