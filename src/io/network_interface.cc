#include "network_interface.hh"

#include <cmath>
#include <cstring>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace csb::io {

namespace {

/** FNV-1a 64: cheap, deterministic, catches any single flipped byte. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace

void
NetworkInterfaceParams::validate() const
{
    if (!(wireTicksPerByte >= 0 && std::isfinite(wireTicksPerByte)))
        csb_fatal("ni.wireTicksPerByte must be finite and >= 0, got ",
                  wireTicksPerByte);
    if (!isPowerOf2(dmaBurstBytes) || dmaBurstBytes > 64)
        csb_fatal("ni.dmaBurstBytes must be a power of two in [1,64], got ",
                  dmaBurstBytes);
    if (dmaMaxOutstanding == 0)
        csb_fatal("ni.dmaMaxOutstanding must be >= 1");
    if (maxSendAttempts == 0)
        csb_fatal("ni.maxSendAttempts must be >= 1");
}

NetworkInterface::NetworkInterface(sim::Simulator &simulator,
                                   bus::SystemBus &bus, Addr base,
                                   const NetworkInterfaceParams &params,
                                   std::string name,
                                   sim::stats::StatGroup *stat_parent)
    : sim::Clocked(name, sim::ClockDomain(1), /*eval_order=*/-3),
      sim::stats::StatGroup(name, stat_parent),
      pioMessages(this, "pioMessages", "messages sent via PIO"),
      dmaMessages(this, "dmaMessages", "messages sent via DMA"),
      bytesSent(this, "bytesSent", "payload bytes onto the wire"),
      descriptorsPushed(this, "descriptorsPushed",
                        "DMA descriptors accepted"),
      wireBusyTicks(this, "wireBusyTicks",
                    "ticks the wire spent transmitting payload"),
      busNacks(this, "busNacks", "DMA reads NACKed on the bus"),
      busRetries(this, "busRetries",
                 "NACKed DMA reads reissued after backoff"),
      retransmits(this, "retransmits",
                  "packets retransmitted after an ack timeout"),
      duplicatesSuppressed(this, "duplicatesSuppressed",
                           "duplicate arrivals suppressed at the receiver"),
      checksumDiscards(this, "checksumDiscards",
                       "arrivals discarded for a checksum mismatch"),
      linkResets(this, "linkResets",
                 "link resets after send-budget exhaustion"),
      linkDownTicks(this, "linkDownTicks",
                    "ticks from first reset to a drained window"),
      linkRecoveries(this, "linkRecoveries",
                     "recovery episodes completed after a reset"),
      messageBytes(this, "messageBytes",
                   "payload bytes per message entering the wire",
                   0, 4096, 256),
      sim_(simulator), bus_(bus), base_(base), params_(validated(params)),
      name_(std::move(name))
{
    masterId_ = bus_.registerMaster(name_ + ".dma");
    simulator.registerClocked(this);
}

void
NetworkInterface::write(bus::BusTransaction &txn, Tick now)
{
    csb_assert(txn.addr >= base_ &&
               txn.addr + txn.size <= base_ + NiMap::windowSize,
               "write outside the NI window");
    Addr offset = txn.addr - base_;

    if (offset >= NiMap::descBase &&
        offset + txn.size <= NiMap::descBase + NiMap::descSize) {
        // Descriptor region: every non-zero doubleword is one
        // descriptor; zero doublewords are CSB padding (section 3.2).
        csb_assert(txn.size % 8 == 0, "descriptor write not dword-sized");
        for (unsigned i = 0; i < txn.size; i += 8) {
            std::uint64_t desc = 0;
            std::memcpy(&desc, txn.data.data() + i, 8);
            if (desc != 0)
                pushDescriptor(desc, now);
        }
        return;
    }

    if (offset == NiMap::doorbell && txn.size == 8) {
        std::uint64_t length = 0;
        std::memcpy(&length, txn.data.data(), 8);
        csb_assert(length > 0 && length <= pioBuffer_.size(),
                   "doorbell length ", length, " exceeds PIO buffer ",
                   pioBuffer_.size());
        // Take the first `length` bytes: CSB zero-padding, when
        // present, trails the payload of the final line burst.
        std::vector<std::uint8_t> payload(
            pioBuffer_.begin(),
            pioBuffer_.begin() + static_cast<std::ptrdiff_t>(length));
        pioBuffer_.clear();
        finishMessage(std::move(payload), now, /*via_dma=*/false);
        pioMessages += 1;
        return;
    }

    if (offset >= NiMap::pioBase &&
        offset + txn.size <= NiMap::pioBase + NiMap::pioSize) {
        // PIO window: append the payload bytes in arrival order.
        pioBuffer_.insert(pioBuffer_.end(), txn.data.begin(),
                          txn.data.end());
        return;
    }

    csb_fatal("NI write to unmapped offset 0x", std::hex, offset,
              std::dec, " size ", txn.size);
}

Tick
NetworkInterface::read(const bus::BusTransaction &txn, Tick,
                       std::vector<std::uint8_t> &data)
{
    // Status register: pending DMA jobs + messages in flight.
    data.assign(txn.size, 0);
    std::uint64_t status = dmaQueue_.size() + messagesInWire_;
    std::memcpy(data.data(), &status,
                std::min<std::size_t>(8, txn.size));
    return params_.readLatency;
}

void
NetworkInterface::pushDescriptor(std::uint64_t desc, Tick now)
{
    ungate();
    DmaJob job;
    job.source = desc >> 16;
    job.length = static_cast<unsigned>(desc & 0xffff);
    csb_assert(job.length > 0, "descriptor with zero length");
    // Pre-sized so each read response lands at its own offset; with
    // in-order responses this is byte-identical to appending, and it
    // stays correct when a NACKed read completes out of order.
    job.payload.assign(job.length, 0);
    job.startTick = now;
    dmaQueue_.push_back(std::move(job));
    descriptorsPushed += 1;
}

void
NetworkInterface::finishMessage(std::vector<std::uint8_t> payload,
                                Tick now, bool via_dma)
{
    std::uint64_t seq = nextSeq_++;
    messageBytes.sample(static_cast<double>(payload.size()));
    ++messagesInWire_;

    if (reliableMode()) {
        WirePacket pkt;
        pkt.seq = seq;
        pkt.checksum = fnv1a(payload);
        pkt.payload = std::move(payload);
        pkt.viaDma = via_dma;
        pkt.firstSendTick = now;
        unacked_.emplace(seq, std::move(pkt));
        transmitPacket(seq, now);
        return;
    }

    // Legacy lossless wire: serialize and schedule the delivery.
    Tick start = std::max(now, wireFreeAt_);
    auto tx_ticks = static_cast<Tick>(
        static_cast<double>(payload.size()) * params_.wireTicksPerByte);
    Tick send_done = start + tx_ticks;
    Tick deliver = send_done + params_.wireLatency;
    wireFreeAt_ = send_done;
    bytesSent += payload.size();
    wireBusyTicks += tx_ticks;

    sim::trace::span("ni.wire", start, send_done, [&] {
        return sim::trace::Fields{
            via_dma ? "dma msg" : "pio msg",
            {{"bytes", std::to_string(payload.size())},
             {"deliver", std::to_string(deliver)}}};
    });

    DeliveredMessage msg;
    msg.payload = std::move(payload);
    msg.sendTick = send_done;
    msg.deliverTick = deliver;
    msg.viaDma = via_dma;
    msg.seq = seq;
    // An event fires once, so the payload moves into the log.
    sim_.eventQueue().scheduleFunc(deliver,
                                   [this, m = std::move(msg)]() mutable {
        delivered_.push_back(std::move(m));
        --messagesInWire_;
    });
}

void
NetworkInterface::transmitPacket(std::uint64_t seq, Tick now)
{
    auto it = unacked_.find(seq);
    csb_assert(it != unacked_.end(), "transmit of an unknown packet");
    WirePacket &pkt = it->second;
    ++pkt.attempts;
    if (pkt.attempts > params_.maxSendAttempts) {
        if (!params_.linkReset) {
            csb_fatal(name_, ": packet seq=", seq,
                      " undeliverable after ", params_.maxSendAttempts,
                      " send attempts");
        }
        performLinkReset(now);
        return;
    }

    Tick start = std::max(now, wireFreeAt_);
    auto tx_ticks = static_cast<Tick>(
        static_cast<double>(pkt.payload.size()) *
        params_.wireTicksPerByte);
    Tick send_done = start + tx_ticks;
    Tick arrival = send_done + params_.wireLatency;
    wireFreeAt_ = send_done;
    bytesSent += pkt.payload.size();
    wireBusyTicks += tx_ticks;

    // The wire decides the packet's fate the moment it is sent; the
    // sender only ever learns through a (missing) acknowledgment.
    bool dropped =
        injector_ &&
        injector_->shouldFault(sim::FaultSite::WireDrop, send_done);
    bool corrupted =
        !dropped && injector_ &&
        injector_->shouldFault(sim::FaultSite::WireCorrupt, send_done);

    sim::trace::span("ni.wire", start, send_done, [&] {
        return sim::trace::Fields{
            pkt.viaDma ? "dma msg" : "pio msg",
            {{"bytes", std::to_string(pkt.payload.size())},
             {"seq", std::to_string(seq)},
             {"attempt", std::to_string(pkt.attempts)},
             {"fate", dropped ? "dropped"
                              : (corrupted ? "corrupted" : "clean")}}};
    });

    if (!dropped) {
        std::vector<std::uint8_t> wire_bytes = pkt.payload;
        if (corrupted && !wire_bytes.empty()) {
            // Deterministic single-byte flip; FNV-1a catches it.
            wire_bytes[seq % wire_bytes.size()] ^= 0xff;
        }
        sim_.eventQueue().scheduleFunc(
            arrival,
            [this, seq, wire_bytes = std::move(wire_bytes),
             claimed = pkt.checksum, send_done, arrival,
             via_dma = pkt.viaDma]() mutable {
                receivePacket(seq, std::move(wire_bytes), claimed,
                              send_done, arrival, via_dma);
            });
    }

    // Ack timeout: retransmit unless an ack (for any attempt) landed
    // first.  The attempt check disarms stale timers after an earlier
    // retransmission already went out.
    sim_.eventQueue().scheduleFunc(
        send_done + params_.retransmitTimeout,
        [this, seq, attempt = pkt.attempts] {
            auto pending = unacked_.find(seq);
            if (pending == unacked_.end() ||
                pending->second.attempts != attempt) {
                return;
            }
            retransmits += 1;
            sim::trace::instant("ni.wire", sim_.curTick(), [&] {
                return sim::trace::Fields{
                    "retransmit",
                    {{"seq", std::to_string(seq)},
                     {"attempt",
                      std::to_string(pending->second.attempts + 1)}}};
            });
            transmitPacket(seq, sim_.curTick());
        });
}

void
NetworkInterface::receivePacket(std::uint64_t seq,
                                std::vector<std::uint8_t> wire_bytes,
                                std::uint64_t claimed_checksum,
                                Tick send_done, Tick arrival, bool via_dma)
{
    if (fnv1a(wire_bytes) != claimed_checksum) {
        checksumDiscards += 1;
        sim::trace::instant("ni.wire", arrival, [&] {
            return sim::trace::Fields{"checksum-discard",
                                      {{"seq", std::to_string(seq)}}};
        });
        return; // no ack; the sender's timeout will retransmit
    }

    bool duplicate = deliveredSeqs_.count(seq) != 0;
    if (duplicate) {
        duplicatesSuppressed += 1;
        sim::trace::instant("ni.wire", arrival, [&] {
            return sim::trace::Fields{"dup-suppressed",
                                      {{"seq", std::to_string(seq)}}};
        });
    } else {
        deliveredSeqs_.insert(seq);
        DeliveredMessage msg;
        msg.payload = std::move(wire_bytes);
        msg.sendTick = send_done;
        msg.deliverTick = arrival;
        msg.viaDma = via_dma;
        msg.seq = seq;
        delivered_.push_back(std::move(msg));
        --messagesInWire_;
    }

    // Acknowledge (even duplicates: the earlier ack may have been
    // lost) unless the ack itself is dropped.
    if (injector_ && injector_->shouldFault(sim::FaultSite::AckDrop,
                                            arrival))
        return;
    sim_.eventQueue().scheduleFunc(
        arrival + params_.ackLatency, [this, seq] {
            unacked_.erase(seq);
            if (unacked_.empty() && resetStartTick_ != maxTick) {
                // The retransmit window drained: the recovery episode
                // that started at the first link reset is over.
                linkDownTicks += sim_.curTick() - resetStartTick_;
                linkRecoveries += 1;
                resetStartTick_ = maxTick;
            }
        });
}

void
NetworkInterface::performLinkReset(Tick now)
{
    linkResets += 1;
    if (resetStartTick_ == maxTick)
        resetStartTick_ = now;
    sim::trace::instant("ni.wire", now, [&] {
        return sim::trace::Fields{
            "link-reset", {{"unacked", std::to_string(unacked_.size())}}};
    });

    // Quiesce: nothing enters the wire until the reset completes.
    Tick up_at = now + params_.linkResetLatency;
    wireFreeAt_ = std::max(wireFreeAt_, up_at);

    // Reinit the DMA engine's retry state: NACKed reads restart with
    // a fresh budget once the link is healthy again.
    for (DmaRetry &retry : dmaRetries_)
        retry.attempt = 0;

    // Zeroing attempts disarms every stale retransmit timer (they
    // check the attempt they were armed with).  The replay below
    // re-arms fresh ones.
    for (auto &[seq, pkt] : unacked_)
        pkt.attempts = 0;

    sim_.eventQueue().scheduleFunc(up_at, [this] {
        // Replay the retransmit window in sequence order; packets
        // acked while the link was down have left the map already.
        // std::map iterates in ascending seq order, but transmits
        // mutate wireFreeAt_, so collect the seqs first.
        std::vector<std::uint64_t> seqs;
        seqs.reserve(unacked_.size());
        for (const auto &[seq, pkt] : unacked_)
            seqs.push_back(seq);
        for (std::uint64_t seq : seqs)
            transmitPacket(seq, sim_.curTick());
        sim_.noteProgress();
    });
}

void
NetworkInterface::tick()
{
    if (dmaQueue_.empty()) {
        // The wire side is fully event-driven; only the DMA engine
        // needs edges, so sleep until a descriptor arrives.
        gate();
        return;
    }
    DmaJob &job = dmaQueue_.front();
    Tick now = sim_.curTick();

    // Every wait below sleeps: a descriptor, a read's start or its
    // response wakes the engine, and a wait on time sleeps until it
    // ends.
    if (!job.startupDone) {
        if (now < job.startTick + params_.dmaStartupTicks) {
            sleepUntil(job.startTick + params_.dmaStartupTicks);
            return;
        }
        job.startupDone = true;
    }

    // NACKed reads reissue before new ones.  A pending retry implies
    // fetched < length, so the job cannot complete under it.
    if (!dmaRetries_.empty()) {
        DmaRetry &head = dmaRetries_.front();
        if (now < head.earliest) {
            sleepUntil(head.earliest);
            return;
        }
        if (!bus_.masterIdle(masterId_)) {
            gate();
            return;
        }
        DmaRetry redo = head;
        dmaRetries_.pop_front();
        ++job.outstanding;
        issueDmaRead(redo.addr, redo.size, redo.offset, redo.attempt);
        return;
    }

    if (job.fetched >= job.length && job.outstanding == 0) {
        // All payload fetched: transmit.
        std::vector<std::uint8_t> payload = std::move(job.payload);
        dmaQueue_.pop_front();
        finishMessage(std::move(payload), now, /*via_dma=*/true);
        dmaMessages += 1;
        return;
    }

    // Pipeline line reads: present the next one as soon as the bus
    // port is free, up to the engine's outstanding-read limit.
    if (job.issued >= job.length ||
        job.outstanding >= params_.dmaMaxOutstanding ||
        !bus_.masterIdle(masterId_)) {
        gate();
        return;
    }

    // Natural alignment: if the transfer starts mid-line, fall back
    // to the largest aligned power of two at this address.
    Addr addr = job.source + job.issued;
    unsigned size = params_.dmaBurstBytes;
    while (size > 1 && (addr % size != 0))
        size /= 2;

    unsigned offset = job.issued;
    job.issued += size;
    ++job.outstanding;
    issueDmaRead(addr, size, offset, /*attempt=*/0);
}

void
NetworkInterface::issueDmaRead(Addr addr, unsigned size, unsigned offset,
                               unsigned attempt)
{
    bool accepted = bus_.requestRead(
        masterId_, addr, size, /*strongly_ordered=*/false,
        [this, addr, size, offset,
         attempt](Tick when, bus::BusStatus status,
                  const std::vector<std::uint8_t> &data) {
            csb_assert(!dmaQueue_.empty(), "DMA response without a job");
            ungate();
            DmaJob &current = dmaQueue_.front();
            csb_assert(current.outstanding > 0, "DMA response underflow");
            --current.outstanding;
            if (status == bus::BusStatus::Ok) {
                unsigned take = std::min<unsigned>(
                    static_cast<unsigned>(data.size()),
                    current.length - offset);
                std::memcpy(current.payload.data() + offset, data.data(),
                            take);
                current.fetched += take;
                return;
            }
            if (status == bus::BusStatus::Error) {
                csb_fatal(name_, ": bus error on DMA read at 0x",
                          std::hex, addr);
            }
            busNacks += 1;
            if (attempt + 1 >= params_.retry.maxAttempts) {
                csb_fatal(name_, ": DMA read retries exhausted (",
                          params_.retry.maxAttempts, ") at 0x", std::hex,
                          addr);
            }
            busRetries += 1;
            dmaRetries_.push_back(DmaRetry{
                addr, size, offset, attempt + 1,
                when + params_.retry.backoffFor(attempt + 1)});
        },
        /*on_start=*/[this](Tick) { ungate(); });
    csb_assert(accepted, "bus refused DMA read despite idle master");
}

bool
NetworkInterface::idle() const
{
    return dmaQueue_.empty() && dmaRetries_.empty() &&
           messagesInWire_ == 0 && unacked_.empty();
}

void
NetworkInterface::checkpointSave(sim::CheckpointWriter &cw) const
{
    csb_assert(idle(), "NI checkpoint requires an idle NI");
    cw.putU64(pioBuffer_.size());
    if (!pioBuffer_.empty())
        cw.putBytes(pioBuffer_.data(), pioBuffer_.size());
    cw.putU64(wireFreeAt_);
    cw.putU64(nextSeq_);
    cw.putU64(delivered_.size());
    for (const DeliveredMessage &msg : delivered_) {
        cw.putU64(msg.payload.size());
        if (!msg.payload.empty())
            cw.putBytes(msg.payload.data(), msg.payload.size());
        cw.putU64(msg.sendTick);
        cw.putU64(msg.deliverTick);
        cw.putU8(msg.viaDma ? 1 : 0);
        cw.putU64(msg.seq);
    }
    cw.putU64(deliveredSeqs_.size());
    for (std::uint64_t seq : deliveredSeqs_)
        cw.putU64(seq);
}

void
NetworkInterface::checkpointRestore(sim::CheckpointReader &cr)
{
    csb_assert(idle() && pioBuffer_.empty() && delivered_.empty(),
               "NI checkpoint restore into a used NI");
    const std::uint64_t pio_bytes = cr.getU64();
    if (pio_bytes > 0) {
        std::span<const std::uint8_t> data = cr.getBytes();
        pioBuffer_.assign(data.begin(), data.end());
        csb_assert(pioBuffer_.size() == pio_bytes, "NI PIO payload size");
    }
    wireFreeAt_ = cr.getU64();
    nextSeq_ = cr.getU64();
    const std::uint64_t delivered = cr.getU64();
    delivered_.reserve(delivered);
    for (std::uint64_t i = 0; i < delivered; ++i) {
        DeliveredMessage msg;
        const std::uint64_t payload_bytes = cr.getU64();
        if (payload_bytes > 0) {
            std::span<const std::uint8_t> data = cr.getBytes();
            msg.payload.assign(data.begin(), data.end());
            csb_assert(msg.payload.size() == payload_bytes,
                       "NI message payload size");
        }
        msg.sendTick = cr.getU64();
        msg.deliverTick = cr.getU64();
        msg.viaDma = cr.getU8() != 0;
        msg.seq = cr.getU64();
        delivered_.push_back(std::move(msg));
    }
    const std::uint64_t seqs = cr.getU64();
    for (std::uint64_t i = 0; i < seqs; ++i)
        deliveredSeqs_.insert(cr.getU64());
}

void
NetworkInterface::debugDump(std::ostream &os) const
{
    os << "dmaJobs=" << dmaQueue_.size()
       << " dmaRetries=" << dmaRetries_.size()
       << " messagesInWire=" << messagesInWire_
       << " unacked=" << unacked_.size()
       << " delivered=" << delivered_.size()
       << " wireFreeAt=" << wireFreeAt_;
    if (resetStartTick_ != maxTick)
        os << " linkDownSince=" << resetStartTick_;
    if (!dmaRetries_.empty()) {
        const DmaRetry &head = dmaRetries_.front();
        os << "\n  dmaRetry head: addr=0x" << std::hex << head.addr
           << std::dec << " attempt=" << head.attempt << " earliest="
           << head.earliest;
    }
    for (const auto &[seq, pkt] : unacked_) {
        os << "\n  unacked seq=" << seq << " attempts=" << pkt.attempts
           << '/' << params_.maxSendAttempts << " firstSend="
           << pkt.firstSendTick;
    }
}

} // namespace csb::io
