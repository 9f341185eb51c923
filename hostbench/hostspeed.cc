#include "hostspeed.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <unordered_map>

namespace hostbench {

namespace {

/** Steps per slice: 1.1-1.5 ms on the host the benchmark was sized on. */
constexpr unsigned kSliceSteps = 5000;
/** Keys the slice draws from; about 1 MiB of live objects. */
constexpr std::uint64_t kKeys = 20000;

struct Item
{
    std::uint64_t key = 0;
    std::vector<std::uint32_t> words;
};

using Event = std::pair<std::uint64_t, std::uint64_t>; // (when, key)

double
median(std::vector<double> &v)
{
    std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2;
}

} // namespace

HostSpeed::HostSpeed() : origin_(Clock::now())
{
    runSlice(); // first touch of the allocator's arenas; not recorded
}

double
HostSpeed::runSlice()
{
    Clock::time_point t0 = Clock::now();
    // The same work every slice: fixed seed, fresh containers.
    std::mt19937_64 rng(0x5eed);
    std::unordered_map<std::uint64_t, std::unique_ptr<Item>> items;
    items.reserve(4096);
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    const std::array<std::function<std::uint64_t(std::uint64_t)>, 4>
        handlers = {
            [](std::uint64_t x) { return x * 3 + 1; },
            [](std::uint64_t x) { return x ^ (x >> 7); },
            [](std::uint64_t x) { return x + 12345; },
            [](std::uint64_t x) { return (x << 3) | (x >> 61); },
        };
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < kSliceSteps; ++i) {
        std::uint64_t key = rng() % kKeys;
        std::unique_ptr<Item> &item = items[key];
        if (!item) {
            item = std::make_unique<Item>();
            item->key = key;
            item->words.resize(1 + key % 24);
        } else if (key % 4 == 0) {
            items.erase(key);
        } else {
            for (std::uint32_t &w : item->words)
                w += static_cast<std::uint32_t>(acc);
            acc += item->words[0];
        }
        events.push({rng() % 1000 + i, key});
        if (events.size() > 256) {
            Event e = events.top();
            events.pop();
            acc = handlers[e.second % 4](acc + e.first);
        }
    }
    sink_ += acc;
    return secondsSince(t0);
}

void
HostSpeed::sample()
{
    // An untimed slice first, so the timed one finds the reference's
    // own code and data in the caches, whatever the op before it left.
    runSlice();
    double start = now();
    double sec = runSlice();
    samples_.emplace_back(start + sec / 2, sec);
    lastEnd_ = start + sec;
}

double
HostSpeed::sinceLastSample() const
{
    return now() - lastEnd_;
}

double
HostSpeed::factorAt(double t) const
{
    if (samples_.empty())
        return 1;
    // Grow [lo, hi) outwards from t, always taking the nearer side.
    auto it = std::lower_bound(samples_.begin(), samples_.end(),
                               std::make_pair(t, 0.0));
    std::size_t hi = static_cast<std::size_t>(it - samples_.begin());
    std::size_t lo = hi;
    std::vector<double> near;
    while (near.size() < kNearest && (lo > 0 || hi < samples_.size())) {
        bool takeLo = hi == samples_.size() ||
                      (lo > 0 && t - samples_[lo - 1].first <
                                     samples_[hi].first - t);
        near.push_back(takeLo ? samples_[--lo].second
                              : samples_[hi++].second);
    }
    return kNominalSliceSec / median(near);
}

double
HostSpeed::medianFactor() const
{
    if (samples_.empty())
        return 1;
    std::vector<double> sec;
    for (const auto &s : samples_)
        sec.push_back(s.second);
    return kNominalSliceSec / median(sec);
}

} // namespace hostbench
