/**
 * @file
 * Shared fixture for the trace tests: points both sinks at string
 * streams, emits events with literal fields and parses the flushed
 * Chrome trace document.  BusTxnCapture reads bus traffic back from
 * the "bus" spans, for tests of any component that drives a bus.
 */

#ifndef CSB_TESTS_SIM_TRACE_FIXTURE_HH
#define CSB_TESTS_SIM_TRACE_FIXTURE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bus/transaction.hh"
#include "sim/trace.hh"

#include "mini_json.hh"

namespace trace_test {

namespace trace = csb::sim::trace;
using csb::Tick;

class TraceFixture : public ::testing::Test
{
  protected:
    void TearDown() override { trace::configure("", nullptr, nullptr); }

    /** Text lines of @p channels to text; the Chrome trace to json. */
    void
    capture(std::string_view channels, bool chrome = false)
    {
        trace::configure(channels, &text, chrome ? &json : nullptr);
    }

    mini_json::Value
    flushAndParse()
    {
        trace::flush();
        return mini_json::parse(json.str());
    }

    static void
    instant(std::string_view track, Tick ts, std::string name,
            std::vector<trace::Arg> args = {})
    {
        trace::instant(track, ts, [&] {
            return trace::Fields{std::move(name), std::move(args)};
        });
    }

    static void
    span(std::string_view track, Tick start, Tick end, std::string name,
         std::vector<trace::Arg> args = {})
    {
        trace::span(track, start, end, [&] {
            return trace::Fields{std::move(name), std::move(args)};
        });
    }

    /** Non-metadata events of a flushed document. */
    static std::vector<mini_json::ValuePtr>
    eventsOf(const mini_json::Value &doc)
    {
        std::vector<mini_json::ValuePtr> events;
        for (const auto &ev : doc.at("traceEvents").array) {
            if (ev->at("ph").string != "M")
                events.push_back(ev);
        }
        return events;
    }

    std::ostringstream text;
    std::ostringstream json;
};

/** One bus tenure, as its "bus" trace span reports it. */
struct BusTxn
{
    csb::bus::TxnKind kind = csb::bus::TxnKind::Write;
    csb::Addr addr = 0;
    unsigned size = 0;
    std::string master;
    bool ordered = false;
    /** As decided when the tenure started (a target's NACK is not). */
    csb::bus::BusStatus status = csb::bus::BusStatus::Ok;
    /** Bus cycles; a read response's address cycle is its request's. */
    std::uint64_t addrCycle = 0;
    std::uint64_t firstDataCycle = 0;
    std::uint64_t lastDataCycle = 0;
    /** The span's end: the tick the tenure completes. */
    Tick completionTick = 0;
};

/**
 * Buffers the Chrome trace while alive, for txns() to read the bus
 * tenures back.  The trace configuration is process-wide: one capture
 * at a time, and none inside a TraceFixture test.
 */
class BusTxnCapture
{
  public:
    BusTxnCapture() { trace::configure("", nullptr, &json_); }
    ~BusTxnCapture() { trace::configure("", nullptr, nullptr); }
    BusTxnCapture(const BusTxnCapture &) = delete;
    BusTxnCapture &operator=(const BusTxnCapture &) = delete;

    /** Every tenure started since construction, in start order. */
    const std::vector<BusTxn> &
    txns()
    {
        trace::flush();
        const mini_json::Value doc = mini_json::parse(json_.str());
        json_.str("");
        for (const auto &ev : doc.at("traceEvents").array) {
            if (ev->at("ph").string != "X" || ev->at("cat").string != "bus")
                continue;
            const mini_json::Value &args = ev->at("args");
            auto arg = [&](const char *key) {
                return args.at(key).string;
            };
            auto number = [&](const char *key) {
                return std::stoull(arg(key), nullptr, 0);
            };
            BusTxn txn;
            const std::string &name = ev->at("name").string;
            txn.kind = kindNamed(name.substr(0, name.find(' ')));
            txn.addr = number("addr");
            txn.size = static_cast<unsigned>(number("size"));
            txn.master = arg("master");
            txn.ordered = arg("ordered") == "true";
            txn.status = statusNamed(arg("status"));
            txn.addrCycle = number("addr_cycle");
            txn.firstDataCycle = number("first_data");
            txn.lastDataCycle = number("last_data");
            txn.completionTick = static_cast<Tick>(ev->at("ts").number +
                                                   ev->at("dur").number);
            txns_.push_back(std::move(txn));
        }
        return txns_;
    }

  private:
    static csb::bus::TxnKind
    kindNamed(const std::string &name)
    {
        using csb::bus::TxnKind;
        for (TxnKind kind :
             {TxnKind::Write, TxnKind::ReadReq, TxnKind::ReadResp}) {
            if (name == csb::bus::txnKindName(kind))
                return kind;
        }
        ADD_FAILURE() << "unknown bus span kind '" << name << "'";
        return TxnKind::Write;
    }

    static csb::bus::BusStatus
    statusNamed(const std::string &name)
    {
        using csb::bus::BusStatus;
        for (BusStatus status :
             {BusStatus::Ok, BusStatus::Nack, BusStatus::Error}) {
            if (name == csb::bus::busStatusName(status))
                return status;
        }
        ADD_FAILURE() << "unknown bus status '" << name << "'";
        return BusStatus::Ok;
    }

    std::ostringstream json_;
    std::vector<BusTxn> txns_;
};

} // namespace trace_test

#endif // CSB_TESTS_SIM_TRACE_FIXTURE_HH
