#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "json.hh"

namespace csb::sim::trace {

namespace {

constexpr unsigned textSink = 1;
constexpr unsigned jsonSink = 2;

struct Event
{
    std::string track;
    Tick ts;
    Tick dur; // 0 for an instant
    Fields fields;
};

/**
 * The configuration and the Chrome trace buffer are process-wide and
 * mutex-guarded: concurrent Simulator instances (core::SweepRunner
 * workers) may trace at once.  The hot disabled path reads one relaxed
 * atomic, detail::gateOpen, inline in the caller.
 */
struct TraceState
{
    std::mutex mutex;
    bool configured = false; // environment read or configure() called
    bool allChannels = false;
    std::set<std::string, std::less<>> channels;
    std::ostream *text = &std::cerr;
    std::ostream *json = nullptr;
    std::unique_ptr<std::ofstream> jsonFile; // owned when env-configured
    std::vector<Event> events;

    ~TraceState()
    {
        // Write the env-configured file at exit; a test-provided
        // stream may already be dead by now, so only the owned file
        // is safe to touch.  Threads are gone at static destruction,
        // so no lock is needed (or safe) here.
        if (jsonFile && jsonFile->is_open())
            writeDocument(*jsonFile);
    }

    /** Caller holds mutex (except the static destructor above). */
    void
    writeDocument(std::ostream &os)
    {
        std::stable_sort(events.begin(), events.end(),
                         [](const Event &a, const Event &b) {
                             return a.ts < b.ts;
                         });

        // Assign tids per track in first-seen order so related events
        // share a row in the viewer.
        std::map<std::string, int> tids;
        std::vector<std::string> track_order;
        for (const Event &ev : events) {
            if (tids.emplace(ev.track, int(tids.size()) + 1).second)
                track_order.push_back(ev.track);
        }

        JsonWriter jw(os, 0);
        jw.beginObject();
        jw.kv("displayTimeUnit", "ms");
        jw.key("traceEvents");
        jw.beginArray();
        for (const std::string &track : track_order) {
            jw.beginObject();
            jw.kv("name", "thread_name");
            jw.kv("ph", "M");
            jw.kv("pid", 0);
            jw.kv("tid", tids[track]);
            jw.key("args").beginObject();
            jw.kv("name", track);
            jw.endObject();
            jw.endObject();
        }
        for (const Event &ev : events) {
            jw.beginObject();
            jw.kv("name", ev.fields.name);
            jw.kv("cat", ev.track);
            jw.kv("ph", ev.dur == 0 ? "i" : "X");
            jw.kv("ts", ev.ts);
            if (ev.dur == 0)
                jw.kv("s", "t");
            else
                jw.kv("dur", ev.dur);
            jw.kv("pid", 0);
            jw.kv("tid", tids[ev.track]);
            if (!ev.fields.args.empty()) {
                jw.key("args").beginObject();
                for (const Arg &arg : ev.fields.args)
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

TraceState &
state()
{
    static TraceState instance;
    return instance;
}

/** Recompute the gate.  @pre s.mutex is held. */
void
publishGate(const TraceState &s)
{
    detail::gateOpen.store(!s.configured || s.allChannels ||
                               !s.channels.empty() || s.json != nullptr,
                           std::memory_order_relaxed);
}

/** Set the text channels from "a,b" or "all".  @pre s.mutex is held. */
void
setChannels(TraceState &s, std::string_view spec)
{
    s.allChannels = false;
    s.channels.clear();
    while (!spec.empty()) {
        std::size_t comma = spec.find(',');
        std::string_view name = spec.substr(0, comma);
        if (name == "all")
            s.allChannels = true;
        else if (!name.empty())
            s.channels.emplace(name);
        spec = comma == std::string_view::npos ? std::string_view()
                                               : spec.substr(comma + 1);
    }
}

/** Read CSBSIM_TRACE and CSBSIM_TRACE_JSON.  @pre s.mutex is held. */
void
loadEnvironment(TraceState &s)
{
    const char *channels = std::getenv("CSBSIM_TRACE");
    setChannels(s, channels != nullptr ? channels : "");
    const char *file = std::getenv("CSBSIM_TRACE_JSON");
    if (file != nullptr && *file != '\0') {
        s.jsonFile = std::make_unique<std::ofstream>(file);
        if (s.jsonFile->is_open())
            s.json = s.jsonFile.get();
        else
            std::fprintf(stderr,
                         "csbsim: cannot open CSBSIM_TRACE_JSON file '%s'\n",
                         file);
    }
    s.configured = true;
    publishGate(s);
}

} // namespace

namespace detail {

std::atomic<bool> gateOpen{true};

unsigned
sinksFor(std::string_view track)
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.configured)
        loadEnvironment(s);
    unsigned sinks = s.json != nullptr ? jsonSink : 0;
    std::string_view channel = track.substr(0, track.find('.'));
    if (s.allChannels || s.channels.find(channel) != s.channels.end())
        sinks |= textSink;
    return sinks;
}

void
record(unsigned sinks, std::string_view track, Tick ts, Tick dur,
       Fields fields)
{
    // Format the text line outside the lock.
    std::string line;
    if (sinks & textSink) {
        std::ostringstream os;
        os << "[" << std::setw(9) << ts << "] " << track << ": "
           << fields.name;
        if (dur != 0)
            os << " dur=" << dur;
        for (const Arg &arg : fields.args)
            os << " " << arg.key << "=" << arg.value;
        os << "\n";
        line = os.str();
    }
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (sinks & textSink)
        *s.text << line;
    if ((sinks & jsonSink) && s.json != nullptr)
        s.events.push_back({std::string(track), ts, dur, std::move(fields)});
}

} // namespace detail

std::string
hexArg(Addr addr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

void
configure(std::string_view channels, std::ostream *text, std::ostream *json)
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.configured = true;
    setChannels(s, channels);
    s.text = text != nullptr ? text : &std::cerr;
    s.jsonFile.reset();
    s.json = json;
    s.events.clear();
    publishGate(s);
}

void
flush()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.json != nullptr)
        s.writeDocument(*s.json);
}

} // namespace csb::sim::trace
