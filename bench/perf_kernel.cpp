/**
 * @file
 * Event-kernel microbenchmark: wall-clock events/sec, sim-ticks/sec,
 * and a timeout-churn workload, run against both the current kernel
 * and an in-process copy of the pre-fix kernel (copy-the-heap
 * nextTick(), new + shared_ptr per scheduleFunc(), no compaction).
 *
 * The printed tables contain only deterministic quantities (event
 * counts, pool/heap sizes), so the EXPERIMENTS.md splice
 * stays byte-identical across machines.  Wall-clock measurements go
 * to the JSON artifact's tables and to stderr.
 *
 * The churn workload doubles as the perf-smoke regression gate:
 * `--min-churn-speedup N` makes the binary exit non-zero unless the
 * current kernel beats the legacy kernel by at least N x.  The ratio
 * is in-process and relative, so it is stable on shared runners.
 */

#include "bench_common.hh"

#include <chrono>
#include <memory>
#include <queue>
#include <type_traits>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace {

using csb::Tick;
using csb::maxTick;

// ---------------------------------------------------------------------
// Pre-fix kernel, reproduced verbatim in behaviour: nextTick() copies
// the whole priority queue to skip stale entries, every scheduleFunc()
// allocates an event and a shared state, cancellation leaves the
// closure alive until the entry's original tick pops.
// ---------------------------------------------------------------------

class LegacyEventQueue
{
  public:
    struct FuncEvent;

    struct FuncState
    {
        FuncEvent *event = nullptr;
        bool done = false;
    };

    struct FuncEvent
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        bool scheduled = false;
        std::function<void()> fn;
        std::shared_ptr<FuncState> state;
    };

    class Handle
    {
      public:
        Handle() = default;
        Handle(LegacyEventQueue *q, std::shared_ptr<FuncState> s)
            : queue_(q), state_(std::move(s))
        {}

        bool pending() const { return state_ && !state_->done; }

        void
        cancel()
        {
            if (!pending())
                return;
            state_->event->scheduled = false;
            state_->done = true;
        }

      private:
        LegacyEventQueue *queue_ = nullptr;
        std::shared_ptr<FuncState> state_;
    };

    ~LegacyEventQueue()
    {
        while (!queue_.empty()) {
            Entry entry = queue_.top();
            queue_.pop();
            if (entry.event->seq == entry.seq)
                delete entry.event;
        }
    }

    Tick curTick() const { return curTick_; }

    void
    scheduleFunc(Tick when, std::function<void()> fn)
    {
        // The legacy kernel paid for handle state on every call.
        scheduleCancellable(when, std::move(fn));
    }

    Handle
    scheduleCancellable(Tick when, std::function<void()> fn)
    {
        auto state = std::make_shared<FuncState>();
        auto *ev = new FuncEvent;
        ev->when = when;
        ev->seq = nextSeq_++;
        ev->scheduled = true;
        ev->fn = std::move(fn);
        ev->state = state;
        state->event = ev;
        queue_.push(Entry{when, ev->seq, ev});
        return Handle(this, std::move(state));
    }

    Tick
    nextTick() const
    {
        // The pre-fix bug under test: a full O(n) copy per peek.
        auto copy = queue_;
        while (!copy.empty()) {
            const Entry &entry = copy.top();
            if (entry.event->scheduled && entry.event->seq == entry.seq)
                return entry.when;
            copy.pop();
        }
        return maxTick;
    }

    void
    serviceUntil(Tick now)
    {
        while (!queue_.empty()) {
            Entry entry = queue_.top();
            bool live = entry.event->scheduled &&
                        entry.event->seq == entry.seq;
            if (live && entry.when > now)
                break;
            queue_.pop();
            if (!live) {
                if (entry.event->seq == entry.seq)
                    delete entry.event;
                continue;
            }
            curTick_ = entry.when;
            entry.event->scheduled = false;
            entry.event->state->done = true;
            ++numProcessed_;
            auto fn = std::move(entry.event->fn);
            delete entry.event;
            fn();
        }
        curTick_ = now;
    }

    std::uint64_t numProcessed() const { return numProcessed_; }
    std::size_t heapSize() const { return queue_.size(); }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        FuncEvent *event;
    };

    struct Compare
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Compare> queue_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t numProcessed_ = 0;
};

// ---------------------------------------------------------------------
// Workloads, templated so both kernels run the identical sequence.
// ---------------------------------------------------------------------

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Schedule/fire throughput: batches of short-range callbacks. */
template <typename Queue>
std::uint64_t
runThroughput(Queue &q, std::uint64_t target, double &seconds)
{
    std::uint64_t fired = 0;
    auto t0 = std::chrono::steady_clock::now();
    Tick t = q.curTick();
    while (fired < target) {
        for (unsigned i = 0; i < 64; ++i)
            q.scheduleFunc(t + 1 + i % 7, [&fired] { ++fired; });
        t += 8;
        q.serviceUntil(t);
    }
    seconds = secondsSince(t0);
    return fired;
}

struct ChurnResult
{
    std::uint64_t fired = 0;
    std::uint64_t peeks = 0;
    std::size_t finalHeap = 0;
    double seconds = 0;
};

/**
 * Supersede-heavy churn: a window of pending timeouts is continuously
 * replaced, with a nextTick() peek per iteration -- the access
 * pattern retry backoff and watchdog polling produce.  The legacy
 * kernel cancels the superseded callback; the current kernel has no
 * cancellation, so each slot carries a generation that a superseded
 * callback checks and finds stale when it fires, as the NI's
 * retransmit timers do.
 */
template <typename Queue>
ChurnResult
runChurn(Queue &q, unsigned window, std::uint64_t iters)
{
    constexpr bool legacy = std::is_same_v<Queue, LegacyEventQueue>;
    std::vector<LegacyEventQueue::Handle> slots(legacy ? window : 0);
    std::vector<std::uint64_t> generation(window, 0);
    csb::sim::Random rng(0x0c5b0c5bULL);
    ChurnResult res;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        Tick now = q.curTick();
        auto slot = static_cast<std::size_t>(rng.uniform(0, window - 1));
        Tick when = now + 1 + rng.uniform(0, 100000);
        if constexpr (legacy) {
            slots[slot].cancel();
            slots[slot] =
                q.scheduleCancellable(when, [&res] { ++res.fired; });
        } else {
            std::uint64_t armed = ++generation[slot];
            q.scheduleFunc(when, [&res, &generation, slot, armed] {
                if (generation[slot] == armed)
                    ++res.fired;
            });
        }
        csb::bench::sink(q.nextTick());
        ++res.peeks;
        if ((i & 1023) == 1023)
            q.serviceUntil(now + 16);
    }
    res.seconds = secondsSince(t0);
    if constexpr (legacy)
        res.finalHeap = q.heapSize();
    else
        res.finalHeap = q.numPending();
    return res;
}

/** Clocked device that gates itself whenever it has no work. */
class IdleDevice : public csb::sim::Clocked
{
  public:
    IdleDevice()
        : csb::sim::Clocked("idle-dev", csb::sim::ClockDomain(1))
    {}

    void
    tick() override
    {
        ++ticksRun;
        if (pending_ == 0) {
            gate();
            return;
        }
        --pending_;
        ++workDone;
    }

    void
    addWork()
    {
        ++pending_;
        ungate();
    }

    std::uint64_t ticksRun = 0;
    std::uint64_t workDone = 0;

  private:
    unsigned pending_ = 0;
};

struct GatingResult
{
    std::uint64_t simTicks = 0;
    std::uint64_t deviceTicks = 0;
    std::uint64_t fastForwarded = 0;
    double seconds = 0;
};

/**
 * Sim-ticks/sec with a mostly-idle clocked device: work arrives every
 * @p period ticks; in between, the gated system fast-forwards.
 */
GatingResult
runGated(Tick total, Tick period)
{
    csb::sim::Simulator sim;
    IdleDevice dev;
    sim.registerClocked(&dev);

    std::function<void(Tick)> arm = [&](Tick when) {
        sim.eventQueue().scheduleFunc(when, [&arm, &dev, when, period] {
            dev.addWork();
            arm(when + period);
        });
    };
    arm(period);

    GatingResult res;
    auto t0 = std::chrono::steady_clock::now();
    sim.runFor(total);
    res.seconds = secondsSince(t0);
    res.simTicks = total;
    res.deviceTicks = dev.ticksRun;
    res.fastForwarded = sim.fastForwardedTicks();
    return res;
}

double
rate(double count, double seconds)
{
    return seconds > 0 ? count / seconds : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csb::bench;

    // --jobs is accepted like every other bench, but the workloads
    // run serially regardless: this binary measures wall-clock kernel
    // rates, and concurrent workloads would time each other's noise.
    BenchArgs args = parseArgs(argc, argv, "--min-churn-speedup");
    JsonReport report("perf_kernel", args.json);

    constexpr std::uint64_t kThroughputEvents = 200'000;
    constexpr unsigned kChurnWindow = 1024;
    constexpr std::uint64_t kChurnIters = 20'000;
    constexpr Tick kGatedTicks = 2'000'000;
    constexpr Tick kGatedPeriod = 1'000;

    double tput_new_s = 0, tput_old_s = 0;
    std::uint64_t fired_new, fired_old;
    std::size_t tput_pool = 0;
    {
        csb::sim::EventQueue q;
        fired_new = runThroughput(q, kThroughputEvents, tput_new_s);
        tput_pool = q.funcPoolSize();
    }
    {
        LegacyEventQueue q;
        fired_old = runThroughput(q, kThroughputEvents, tput_old_s);
    }

    ChurnResult churn_new, churn_old;
    {
        csb::sim::EventQueue q;
        churn_new = runChurn(q, kChurnWindow, kChurnIters);
    }
    {
        LegacyEventQueue q;
        churn_old = runChurn(q, kChurnWindow, kChurnIters);
    }

    GatingResult gated = runGated(kGatedTicks, kGatedPeriod);

    // Both kernels must have executed the identical simulation.
    if (fired_new != fired_old || churn_new.fired != churn_old.fired) {
        std::fprintf(stderr,
                     "kernel divergence: new fired %llu/%llu, "
                     "legacy %llu/%llu\n",
                     static_cast<unsigned long long>(fired_new),
                     static_cast<unsigned long long>(churn_new.fired),
                     static_cast<unsigned long long>(fired_old),
                     static_cast<unsigned long long>(churn_old.fired));
        return report.finish(1);
    }

    double speedup = churn_new.seconds > 0
                         ? churn_old.seconds / churn_new.seconds
                         : 0.0;

    // Deterministic text only: counts and kernel counters, never
    // wall-clock, so the EXPERIMENTS.md splice is byte-identical on
    // every machine.
    report.print("=== Event-kernel microbenchmark ===\n");
    report.printf("throughput: %llu events fired in schedule/fire "
                  "batches (both kernels agree); %llu pooled events "
                  "served every allocation after warm-up\n",
                  static_cast<unsigned long long>(fired_new),
                  static_cast<unsigned long long>(tput_pool));
    report.printf("churn: window %u, %llu schedule+supersede "
                  "iterations with a nextTick() peek each -> %llu "
                  "fired, final heap %llu entries (legacy heap: %llu)\n",
                  kChurnWindow,
                  static_cast<unsigned long long>(kChurnIters),
                  static_cast<unsigned long long>(churn_new.fired),
                  static_cast<unsigned long long>(churn_new.finalHeap),
                  static_cast<unsigned long long>(churn_old.finalHeap));
    report.printf("clock gating: %llu sim ticks with work every %llu "
                  "ticks -> idle device ticked %llu times, "
                  "%llu ticks fast-forwarded\n",
                  static_cast<unsigned long long>(gated.simTicks),
                  static_cast<unsigned long long>(kGatedPeriod),
                  static_cast<unsigned long long>(gated.deviceTicks),
                  static_cast<unsigned long long>(gated.fastForwarded));
    report.print("(wall-clock rates are machine-dependent and live in "
                 "the JSON artifact's tables and on stderr, not in "
                 "this reproducible text.)\n\n");

    // Machine-dependent numbers: stderr for humans, artifact tables
    // for the perf trajectory.
    std::fprintf(stderr,
                 "throughput: new %.0f events/s, legacy %.0f events/s\n",
                 rate(static_cast<double>(fired_new), tput_new_s),
                 rate(static_cast<double>(fired_old), tput_old_s));
    std::fprintf(stderr,
                 "churn:      new %.3f s, legacy %.3f s -> speedup "
                 "%.1fx\n",
                 churn_new.seconds, churn_old.seconds, speedup);
    std::fprintf(stderr, "gating:     %.0f sim-ticks/s\n",
                 rate(static_cast<double>(gated.simTicks),
                      gated.seconds));

    report.beginTable("Kernel wall-clock on this machine (varies by "
                      "host; the churn speedup is the regression gate)",
                      {"seconds", "per_sec"});
    report.addRow("throughput/current",
                  {tput_new_s,
                   rate(static_cast<double>(fired_new), tput_new_s)});
    report.addRow("throughput/legacy",
                  {tput_old_s,
                   rate(static_cast<double>(fired_old), tput_old_s)});
    report.addRow("churn/current",
                  {churn_new.seconds,
                   rate(static_cast<double>(kChurnIters),
                        churn_new.seconds)});
    report.addRow("churn/legacy",
                  {churn_old.seconds,
                   rate(static_cast<double>(kChurnIters),
                        churn_old.seconds)});
    report.addRow("gated-sim",
                  {gated.seconds,
                   rate(static_cast<double>(gated.simTicks),
                        gated.seconds)});
    report.beginTable("Churn speedup vs pre-fix kernel "
                      "(acceptance: >= 3x)",
                      {"speedup"});
    report.addRow("churn", {speedup});

    if (args.minSpeedup > 0 && speedup < args.minSpeedup) {
        std::fprintf(stderr,
                     "FAIL: churn speedup %.2fx below required %.2fx\n",
                     speedup, args.minSpeedup);
        return report.finish(1);
    }
    return report.finish();
}
