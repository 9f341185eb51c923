#include "trace_json.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "json.hh"

namespace csb::sim::trace {

namespace {

struct JsonEvent
{
    std::string track;
    std::string name;
    Tick ts;
    Tick dur;       // 0 for instant events
    bool instant;
    std::vector<SpanArg> args;
};

/**
 * The event buffer is process-wide (one trace file per process), so
 * it is mutex-guarded: concurrent Simulator instances may append
 * spans from sweep worker threads.  The disabled fast path reads a
 * single relaxed atomic, detail::jsonMaybeEnabled.
 */
struct TraceJsonState
{
    std::mutex mutex;
    std::ostream *out = nullptr;            // active sink, if any
    std::unique_ptr<std::ofstream> file;    // owned when env/file-based
    std::vector<JsonEvent> events;
    std::atomic<bool> envLoaded{false};

    ~TraceJsonState()
    {
        // Flush the env-configured file sink at exit; a test-provided
        // ostream may already be dead by now, so only the owned file
        // is safe to touch.  Threads are gone at static destruction,
        // so no lock is needed (or safe) here.
        if (file && file->is_open())
            flushTo(*file);
    }

    /** Caller holds mutex (except the static destructor above). */
    void
    flushTo(std::ostream &os)
    {
        std::stable_sort(events.begin(), events.end(),
                         [](const JsonEvent &a, const JsonEvent &b) {
                             return a.ts < b.ts;
                         });

        // Assign tids per track in first-seen order so related spans
        // share a row in the viewer.
        std::map<std::string, int> tids;
        std::vector<std::string> track_order;
        for (const JsonEvent &ev : events) {
            if (tids.emplace(ev.track, int(tids.size()) + 1).second)
                track_order.push_back(ev.track);
        }

        JsonWriter jw(os, 0);
        jw.beginObject();
        jw.kv("displayTimeUnit", "ms");
        jw.key("traceEvents");
        jw.beginArray();
        for (std::size_t i = 0; i < track_order.size(); ++i) {
            jw.beginObject();
            jw.kv("name", "thread_name");
            jw.kv("ph", "M");
            jw.kv("pid", 0);
            jw.kv("tid", tids[track_order[i]]);
            jw.key("args").beginObject();
            jw.kv("name", track_order[i]);
            jw.endObject();
            jw.endObject();
        }
        for (const JsonEvent &ev : events) {
            jw.beginObject();
            jw.kv("name", ev.name);
            jw.kv("cat", ev.track);
            jw.kv("ph", ev.instant ? "i" : "X");
            jw.kv("ts", ev.ts);
            if (!ev.instant)
                jw.kv("dur", ev.dur);
            else
                jw.kv("s", "t");
            jw.kv("pid", 0);
            jw.kv("tid", tids[ev.track]);
            if (!ev.args.empty()) {
                jw.key("args").beginObject();
                for (const SpanArg &arg : ev.args)
                    jw.kv(arg.key, arg.value);
                jw.endObject();
            }
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
        os << "\n";
        os.flush();
        events.clear();
    }
};

TraceJsonState &
state()
{
    static TraceJsonState instance;
    return instance;
}

void
loadEnvOnce()
{
    TraceJsonState &s = state();
    if (s.envLoaded.load(std::memory_order_acquire))
        return;
    const char *env = std::getenv("CSBSIM_TRACE_JSON");
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.envLoaded.load(std::memory_order_relaxed))
        return; // another thread (or an explicit jsonEnable*) won
    if (env && *env) {
        s.file = std::make_unique<std::ofstream>(env);
        if (s.file->is_open())
            s.out = s.file.get();
        else
            std::fprintf(stderr,
                         "csbsim: cannot open CSBSIM_TRACE_JSON file '%s'\n",
                         env);
    }
    detail::jsonMaybeEnabled.store(s.out != nullptr,
                                   std::memory_order_relaxed);
    s.envLoaded.store(true, std::memory_order_release);
}

} // namespace

std::atomic<bool> detail::jsonMaybeEnabled{true};

bool
detail::jsonEnabledSlow()
{
    loadEnvOnce();
    return jsonMaybeEnabled.load(std::memory_order_relaxed);
}

void
jsonEnable(std::ostream *os)
{
    TraceJsonState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.envLoaded.store(true, std::memory_order_release);
    s.file.reset();
    s.out = os;
    detail::jsonMaybeEnabled.store(os != nullptr, std::memory_order_relaxed);
}

void
jsonDisable()
{
    TraceJsonState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.envLoaded.store(true, std::memory_order_release);
    s.events.clear();
    s.out = nullptr;
    s.file.reset();
    detail::jsonMaybeEnabled.store(false, std::memory_order_relaxed);
}

void
jsonFlush()
{
    TraceJsonState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.out == nullptr) {
        s.events.clear();
        return;
    }
    s.flushTo(*s.out);
}

std::size_t
jsonPendingEvents()
{
    TraceJsonState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.events.size();
}

void
jsonSpan(const std::string &track, const std::string &name,
         Tick start, Tick end, std::vector<SpanArg> args)
{
    if (!jsonEnabled())
        return;
    Tick dur = end > start ? end - start : 1;
    TraceJsonState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.events.push_back({track, name, start, dur, false, std::move(args)});
}

void
jsonInstant(const std::string &track, const std::string &name,
            Tick ts, std::vector<SpanArg> args)
{
    if (!jsonEnabled())
        return;
    TraceJsonState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.events.push_back({track, name, ts, 0, true, std::move(args)});
}

std::string
hexArg(Addr addr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

} // namespace csb::sim::trace
