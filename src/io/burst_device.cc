#include "burst_device.hh"

#include <cstring>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace csb::io {

BurstDevice::BurstDevice(Tick read_latency, unsigned max_accept,
                         std::string name,
                         sim::stats::StatGroup *stat_parent)
    : sim::stats::StatGroup(name, stat_parent),
      writesReceived(this, "writesReceived", "write transactions seen"),
      bytesReceived(this, "bytesReceived", "bytes written to the device"),
      readsServed(this, "readsServed", "register reads served"),
      name_(std::move(name)), readLatency_(read_latency),
      maxAccept_(max_accept)
{
}

bus::BusStatus
BurstDevice::accept(const bus::BusTransaction &txn, Tick now)
{
    (void)txn;
    if (injector_ &&
        injector_->shouldFault(sim::FaultSite::DeviceHang, now)) {
        return bus::BusStatus::Nack;
    }
    return bus::BusStatus::Ok;
}

void
BurstDevice::write(bus::BusTransaction &txn, Tick now)
{
    if (txn.size > maxAccept_) {
        csb_fatal("device '", name_, "' cannot accept a ", txn.size,
                  "-byte burst (max ", maxAccept_,
                  "); see DESIGN.md / paper section 3.3");
    }
    DeviceWrite rec;
    rec.addr = txn.addr;
    rec.data = std::move(txn.data);
    rec.completionTick = now;
    writeLog_.push_back(std::move(rec));
    writesReceived += 1;
    bytesReceived += txn.size;

    sim::trace::instant("dev", now, [&] {
        return sim::trace::Fields{
            "burst " + std::to_string(txn.size) + "B",
            {{"addr", sim::trace::hexArg(txn.addr)}, {"device", name_}}};
    });
}

Tick
BurstDevice::read(const bus::BusTransaction &txn, Tick,
                  std::vector<std::uint8_t> &data)
{
    data.assign(txn.size, 0);
    for (const auto &[addr, value] : registers_) {
        if (addr >= txn.addr && addr + 8 <= txn.addr + txn.size) {
            std::memcpy(data.data() + (addr - txn.addr), &value, 8);
        }
    }
    readsServed += 1;
    return readLatency_;
}

void
BurstDevice::setRegister(Addr addr, std::uint64_t value)
{
    for (auto &[existing, stored] : registers_) {
        if (existing == addr) {
            stored = value;
            return;
        }
    }
    registers_.emplace_back(addr, value);
}

void
BurstDevice::checkpointSave(sim::CheckpointWriter &cw) const
{
    cw.putU64(writeLog_.size());
    for (const DeviceWrite &rec : writeLog_) {
        cw.putU64(rec.addr);
        cw.putU64(rec.data.size());
        if (!rec.data.empty())
            cw.putBytes(rec.data.data(), rec.data.size());
        cw.putU64(rec.completionTick);
    }
    cw.putU64(registers_.size());
    for (const auto &[addr, value] : registers_) {
        cw.putU64(addr);
        cw.putU64(value);
    }
}

void
BurstDevice::checkpointRestore(sim::CheckpointReader &cr)
{
    csb_assert(writeLog_.empty(),
               "device checkpoint restore into a used device");
    const std::uint64_t writes = cr.getU64();
    writeLog_.reserve(writes);
    for (std::uint64_t i = 0; i < writes; ++i) {
        DeviceWrite rec;
        rec.addr = cr.getU64();
        const std::uint64_t bytes = cr.getU64();
        if (bytes > 0) {
            std::span<const std::uint8_t> data = cr.getBytes();
            rec.data.assign(data.begin(), data.end());
            csb_assert(rec.data.size() == bytes, "device write payload");
        }
        rec.completionTick = cr.getU64();
        writeLog_.push_back(std::move(rec));
    }
    registers_.clear();
    const std::uint64_t regs = cr.getU64();
    for (std::uint64_t i = 0; i < regs; ++i) {
        Addr addr = cr.getU64();
        std::uint64_t value = cr.getU64();
        registers_.emplace_back(addr, value);
    }
}

} // namespace csb::io
