#include "trace.hh"

#include <atomic>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <set>

namespace csb::sim::trace {

namespace {

/**
 * Channel configuration is process-wide and mutex-guarded so that
 * concurrent Simulator instances (core::SweepRunner workers) can
 * trace safely.  The hot disabled path reads one relaxed atomic,
 * detail::maybeEnabled, inline in the caller.
 */
struct TraceState
{
    std::mutex mutex;
    std::set<std::string, std::less<>> channels;
    bool all = false;
    std::atomic<bool> envLoaded{false};
    std::ostream *out = &std::cerr;
};

TraceState &
state()
{
    static TraceState instance;
    return instance;
}

/**
 * The tick source is per-thread: each sweep worker runs its own
 * Simulator, and its trace lines must show that simulator's ticks.
 */
thread_local std::function<Tick()> tickSource;

/** Recompute maybeEnabled.  @pre s.mutex is held. */
void
publishMaybeEnabled(const TraceState &s)
{
    detail::maybeEnabled.store(
        !s.envLoaded.load(std::memory_order_relaxed) || s.all ||
            !s.channels.empty(),
        std::memory_order_relaxed);
}

void
loadEnvOnce()
{
    TraceState &s = state();
    if (s.envLoaded.load(std::memory_order_acquire))
        return;
    const char *env = std::getenv("CSBSIM_TRACE");
    std::string spec(env != nullptr ? env : "");
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.envLoaded.load(std::memory_order_relaxed))
        return; // another thread (or an explicit enable()) won
    std::size_t start = 0;
    while (start <= spec.size() && !spec.empty()) {
        std::size_t comma = spec.find(',', start);
        std::string name =
            spec.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!name.empty()) {
            if (name == "all")
                s.all = true;
            else
                s.channels.insert(name);
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    s.envLoaded.store(true, std::memory_order_release);
    publishMaybeEnabled(s);
}

} // namespace

namespace detail {

std::atomic<bool> maybeEnabled{true};

bool
enabledSlow(std::string_view name)
{
    loadEnvOnce();
    if (!maybeEnabled.load(std::memory_order_relaxed))
        return false;
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.all || s.channels.find(name) != s.channels.end();
}

} // namespace detail

void
enable(const std::string &name)
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    // explicit control overrides lazy env load
    s.envLoaded.store(true, std::memory_order_release);
    if (name == "all") {
        s.all = true;
    } else {
        s.channels.insert(name);
    }
    publishMaybeEnabled(s);
}

void
disable(const std::string &name)
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (name == "all") {
        s.all = false;
        s.channels.clear();
    } else {
        s.channels.erase(name);
    }
    publishMaybeEnabled(s);
}

void
setOutput(std::ostream *os)
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.out = os != nullptr ? os : &std::cerr;
}

void
setTickSource(std::function<Tick()> source)
{
    tickSource = std::move(source);
}

namespace detail {

void
emit(std::string_view channel, const std::string &message)
{
    TraceState &s = state();
    // Format outside the lock; the tick source is thread-local.
    std::ostringstream line;
    line << "[";
    if (tickSource) {
        line << std::setw(9) << tickSource();
    } else {
        line << std::setw(9) << "-";
    }
    line << "] " << channel << ": " << message << "\n";
    std::lock_guard<std::mutex> lock(s.mutex);
    *s.out << line.str();
}

} // namespace detail
} // namespace csb::sim::trace
