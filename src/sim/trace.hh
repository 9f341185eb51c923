/**
 * @file
 * Trace events: each component event is reported once and rendered by
 * both sinks, the text channels and the Chrome trace.
 *
 * An event is an instant or a span on a named track ("bus", "csb",
 * "ni.wire", ...), stamped with its own tick and carrying key/value
 * args.  A site builds the name and args in a lambda, which runs only
 * when some sink wants the track:
 *
 *     sim::trace::instant("csb", now, [&] {
 *         return sim::trace::Fields{"flush-ok",
 *                                   {{"pid", std::to_string(pid)}}};
 *     });
 *
 * Both sinks are off by default and read the environment once:
 *
 *     CSBSIM_TRACE=csb,bus ./build/examples/quickstart
 *         prints one line per event on stderr for the listed channels
 *         ("all" lists every one).  A track's channel is its first
 *         dot-separated component, so "ni" shows the "ni.wire" track.
 *         A span shows its duration before the args:
 *
 *         [       31] csb: flush-ok pid=1 addr=0x22000000 stores=8
 *         [       36] bus: write 64B dur=54 addr=0x22000000 ...
 *
 *     CSBSIM_TRACE_JSON=out.json ./build/examples/quickstart
 *         buffers every event and writes one Chrome trace-event
 *         document (chrome://tracing, ui.perfetto.dev), sorted by
 *         timestamp, at process exit.  One tick is one microsecond.
 *
 * With both sinks off a call costs one relaxed atomic load, inline in
 * the caller, and formats nothing.  The gate starts open so that the
 * first call reads the environment.
 */

#ifndef CSB_SIM_TRACE_HH
#define CSB_SIM_TRACE_HH

#include <atomic>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "types.hh"

namespace csb::sim::trace {

/** One key/value argument of an event. */
struct Arg
{
    std::string key;
    std::string value;
};

/** What a site says about an event besides its track and ticks. */
struct Fields
{
    std::string name;
    std::vector<Arg> args;
};

namespace detail {
/**
 * False only once the environment has been read and no sink is on;
 * true while it is unread or any channel or the Chrome trace is on.
 */
extern std::atomic<bool> gateOpen;

/** @return the sinks (a bit mask, 0 = none) that want @p track. */
unsigned sinksFor(std::string_view track);

/** Hand one event to @p sinks; @p dur is 0 for an instant. */
void record(unsigned sinks, std::string_view track, Tick ts, Tick dur,
            Fields fields);
} // namespace detail

/** Record an instant event at tick @p ts; @p make returns its Fields. */
template <typename MakeFields>
void
instant(std::string_view track, Tick ts, MakeFields &&make)
{
    if (!detail::gateOpen.load(std::memory_order_relaxed))
        return;
    if (unsigned sinks = detail::sinksFor(track))
        detail::record(sinks, track, ts, 0, make());
}

/**
 * Record a span covering [@p start, @p end); a span that ends at or
 * before its start still lasts one tick.  @p make returns its Fields.
 */
template <typename MakeFields>
void
span(std::string_view track, Tick start, Tick end, MakeFields &&make)
{
    if (!detail::gateOpen.load(std::memory_order_relaxed))
        return;
    if (unsigned sinks = detail::sinksFor(track))
        detail::record(sinks, track, start, end > start ? end - start : 1,
                       make());
}

/** Render @p addr as "0x..." for use in args. */
std::string hexArg(Addr addr);

/**
 * Replace the environment's configuration (for tests): text lines for
 * @p channels (comma-separated, "all", or empty for none) go to
 * @p text, or std::cerr when it is null; the Chrome trace buffers for
 * @p json, or is off when it is null.  Buffered events are dropped.
 */
void configure(std::string_view channels, std::ostream *text,
               std::ostream *json);

/**
 * Write the buffered events as one sorted Chrome trace document to the
 * configured stream, then clear the buffer.
 */
void flush();

} // namespace csb::sim::trace

#endif // CSB_SIM_TRACE_HH
