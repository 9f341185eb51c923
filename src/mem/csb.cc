#include "csb.hh"

#include <cstring>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace csb::mem {

void
CsbParams::validate() const
{
    if (!isPowerOf2(lineBytes) || lineBytes < 16 ||
        lineBytes > maxBlockBytes) {
        csb_fatal("CSB line size must be a power of two in [16,",
                  maxBlockBytes, "], got ", lineBytes);
    }
    if (numLineBuffers < 1 || numLineBuffers > 4)
        csb_fatal("CSB supports 1..4 line buffers, got ", numLineBuffers);
    if (degradedFallback && repromoteAfter < 1)
        csb_fatal("CSB degraded fallback needs repromoteAfter >= 1");
}

ConditionalStoreBuffer::ConditionalStoreBuffer(
    sim::Simulator &simulator, bus::SystemBus &bus, const CsbParams &params,
    std::string name, sim::stats::StatGroup *stat_parent)
    : sim::Clocked(name, sim::ClockDomain(1), /*eval_order=*/-5),
      sim::stats::StatGroup(name, stat_parent),
      storesAccepted(this, "storesAccepted", "combining stores merged"),
      conflictsOnStore(this, "conflictsOnStore",
                       "stores that cleared a competing sequence"),
      flushesAttempted(this, "flushesAttempted",
                       "conditional flushes executed"),
      flushesSucceeded(this, "flushesSucceeded",
                       "flushes that issued an atomic burst"),
      flushesFailed(this, "flushesFailed", "flushes that detected conflict"),
      linesIssued(this, "linesIssued", "burst lines sent to the bus"),
      storeStallCycles(this, "storeStallCycles",
                       "cycles retire stalled on a busy line buffer"),
      busNacks(this, "busNacks", "flush writes NACKed on the bus"),
      busRetries(this, "busRetries",
                 "NACKed flush writes reissued after backoff"),
      degradedEntries(this, "degradedEntries",
                      "retry exhaustions escalated to degraded mode"),
      repromotions(this, "repromotions",
                   "re-promotions to burst mode after clean flushes"),
      degradedTicks(this, "degradedTicks",
                    "ticks spent in degraded (PIO fallback) mode"),
      fillAtFlush(this, "fillAtFlush",
                  "valid bytes in the line at a successful flush",
                  0, params.lineBytes, 8),
      sim_(simulator), bus_(bus), params_(validated(params)),
      outbox_(params_.numLineBuffers)
{
    if (params_.lineBytes > bus_.params().maxBurstBytes)
        csb_fatal("CSB line (", params_.lineBytes,
                  ") exceeds the bus max burst (",
                  bus_.params().maxBurstBytes, ")");
    masterId_ = bus_.registerMaster(name + ".port");
    simulator.registerClocked(this);
}

void
ConditionalStoreBuffer::clearAccumulator()
{
    // The data register is cleared so that unused words are zero-
    // padded in the next burst, avoiding data leaks between processes
    // (section 3.2).
    data_.fill(0);
    valid_.reset();
}

void
ConditionalStoreBuffer::store(ProcId pid, Addr addr, unsigned size,
                              const void *data)
{
    // No wake-up: tick() has nothing to do with an accumulating line
    // until a flush hands it to the outbox.
    csb_assert(canAcceptStore(), "CSB store while all line buffers busy");
    csb_assert(size > 0 && size <= 8 && isPowerOf2(size) &&
               addr % size == 0, "bad combining store shape");

    Addr line = roundDown(addr, params_.lineBytes);
    bool match = hitCounter_ > 0 && pid_ == pid && lineAddr_ == line;
    if (!match) {
        if (hitCounter_ > 0)
            ++conflictsOnStore;
        clearAccumulator();
        lineAddr_ = line;
        pid_ = pid;
        hitCounter_ = 0;
    }

    unsigned offset = static_cast<unsigned>(addr - line);
    std::memcpy(data_.data() + offset, data, size);
    for (unsigned i = 0; i < size; ++i)
        valid_.set(offset + i);
    ++hitCounter_;
    ++storesAccepted;
    if (hitCounter_ == 1)
        accumStartTick_ = sim_.curTick();
    sim::trace::instant("csb", sim_.curTick(), [&] {
        return sim::trace::Fields{
            "store",
            {{"pid", std::to_string(pid)},
             {"addr", sim::trace::hexArg(addr)},
             {"size", std::to_string(size)},
             {"cleared", match ? "false" : "true"},
             {"counter", std::to_string(hitCounter_)}}};
    });
}

bool
ConditionalStoreBuffer::conditionalFlush(ProcId pid, Addr addr,
                                         std::uint64_t expected)
{
    ungate();
    ++flushesAttempted;
    Addr line = roundDown(addr, params_.lineBytes);

    bool match = hitCounter_ != 0 && hitCounter_ == expected &&
                 pid_ == pid &&
                 (!params_.checkAddress || lineAddr_ == line);

    if (!match) {
        sim::trace::instant("csb", sim_.curTick(), [&] {
            return sim::trace::Fields{
                "flush-fail",
                {{"pid", std::to_string(pid)},
                 {"addr", sim::trace::hexArg(line)},
                 {"expected", std::to_string(expected)},
                 {"counter", std::to_string(hitCounter_)}}};
        });
        clearAccumulator();
        hitCounter_ = 0;
        ++flushesFailed;
        return false;
    }

    fillAtFlush.sample(static_cast<double>(valid_.count()));
    sim::trace::span("csb", accumStartTick_, sim_.curTick(), [&] {
        return sim::trace::Fields{
            "csb line " + sim::trace::hexArg(lineAddr_),
            {{"stores", std::to_string(expected)},
             {"valid_bytes", std::to_string(valid_.count())}}};
    });

    // Success: hand the (zero-padded) line to the system interface.
    // The CsbFlushDrop DEBUG knob models a buggy CSB that reports
    // success but loses the line; the litmus harness exists to catch
    // exactly this class of bug, so the drop happens after all the
    // success bookkeeping a real buggy implementation would also do.
    if (injector_ &&
        injector_->shouldFault(sim::FaultSite::CsbFlushDrop,
                               sim_.curTick())) {
        sim::trace::instant("csb", sim_.curTick(), [&] {
            return sim::trace::Fields{
                "flush-drop",
                {{"pid", std::to_string(pid)},
                 {"addr", sim::trace::hexArg(line)}}};
        });
    } else {
        OutLine &out = outbox_.emplace_back();
        out.addr = lineAddr_;
        out.data = data_;
        out.valid = valid_;
    }

    sim::trace::instant("csb", sim_.curTick(), [&] {
        return sim::trace::Fields{
            "flush-ok",
            {{"pid", std::to_string(pid)},
             {"addr", sim::trace::hexArg(line)},
             {"stores", std::to_string(expected)}}};
    });
    clearAccumulator();
    hitCounter_ = 0;
    ++flushesSucceeded;
    return true;
}

bool
ConditionalStoreBuffer::quiescent() const
{
    return hitCounter_ == 0 && outbox_.empty() && retryQueue_.empty() &&
           inflight_ == 0;
}

void
ConditionalStoreBuffer::accrueStalls(Tick until)
{
    std::uint64_t skipped = takeSkippedEdges(until);
    if (stalled_)
        storeStallCycles += double(skipped);
}

void
ConditionalStoreBuffer::settle()
{
    accrueStalls(sim_.curTick());
}

void
ConditionalStoreBuffer::tick()
{
    Tick now = sim_.curTick();
    accrueStalls(now);
    stalled_ = !canAcceptStore();

    // Every wait below sleeps: conditionalFlush(), a chunk's start or
    // a completion it waits for wakes the CSB, and a wait on time or
    // on the bus sleeps until the first tick that can end it.  The
    // outbox changes only where the CSB is woken, so a full one
    // stalls every skipped edge, which accrueStalls() counts.
    if (quiescent()) {
        // Nothing buffered and nothing in flight: no future edge can
        // do work until store()/conditionalFlush() ungate us.
        gate();
        return;
    }

    if (stalled_)
        storeStallCycles += 1;

    if (presentPending_ || !bus_.masterIdle(masterId_)) {
        gate();
        return;
    }

    // With bus faults possible, wait for the in-flight chunk's status
    // before issuing the next: a NACK discovered at completion would
    // otherwise replay behind a younger chunk, reordering the stream.
    if (inflight_ != 0 && bus_.ordersMustSerialize()) {
        gate();
        return;
    }

    // NACKed chunks reissue strictly before new outbox data so the
    // stream out of this port keeps its order.
    if (!retryQueue_.empty()) {
        RetryWrite &head = retryQueue_.front();
        if (now < head.earliest) {
            sleepUntil(head.earliest);
            return;
        }
        if (!bus_.wouldAcceptAtNextEdge(masterId_,
                                        /*strongly_ordered=*/true,
                                        /*is_write=*/true)) {
            sleepUntil(bus_.earliestAcceptTick(
                masterId_, /*strongly_ordered=*/true, /*is_write=*/true));
            return;
        }
        RetryWrite redo = std::move(head);
        retryQueue_.pop_front();
        issueWrite(redo.addr, std::move(redo.data), redo.lastChunk,
                   redo.attempt, /*from_outbox=*/false);
        return;
    }

    if (outbox_.empty()) {
        gate();
        return;
    }
    // Hand a line to the system interface only when the bus will take
    // it at the next edge; until then the line buffer stays occupied
    // (which is what gates following combining stores).
    if (!bus_.wouldAcceptAtNextEdge(masterId_, /*strongly_ordered=*/true,
                                    /*is_write=*/true)) {
        sleepUntil(bus_.earliestAcceptTick(
            masterId_, /*strongly_ordered=*/true, /*is_write=*/true));
        return;
    }

    OutLine &head = outbox_.front();

    if (headChunkMax_ == 0) {
        if (degraded_) {
            // Degraded mode: the device is refusing bursts, so fall
            // back to the PIO path -- decomposed <= 8-byte aligned
            // stores of the valid bytes (docs/FAULTS.md).
            headChunkMax_ = 8;
        } else if (params_.partialFlush &&
                   head.valid.count() != params_.lineBytes) {
            // Relaxed mode: issue only the valid bytes.
            headChunkMax_ = bus_.params().maxBurstBytes;
        }
    }

    Addr txn_addr;
    unsigned txn_size;
    bool last_chunk;
    // Finish a chunked line unconditionally: a re-promotion mid-line
    // must not re-issue already-sent bytes as a fresh full burst.
    if (headChunkMax_ != 0) {
        Chunk chunk = nextAlignedChunk(head.addr, head.valid,
                                       params_.lineBytes, headChunkMax_,
                                       headCursor_);
        csb_assert(chunk.size != 0, "flushed an empty line");
        txn_addr = chunk.addr;
        txn_size = chunk.size;
        headCursor_ = static_cast<unsigned>(chunk.addr - head.addr) +
                      chunk.size;
        last_chunk = nextAlignedChunk(head.addr, head.valid,
                                      params_.lineBytes, headChunkMax_,
                                      headCursor_).size == 0;
        if (last_chunk) {
            headChunkMax_ = 0;
            headCursor_ = 0;
        }
    } else {
        // Base design: always a full zero-padded line burst.
        txn_addr = head.addr;
        txn_size = params_.lineBytes;
        last_chunk = true;
    }

    const std::uint8_t *bytes = head.data.data() + (txn_addr - head.addr);
    issueWrite(txn_addr, std::vector<std::uint8_t>(bytes, bytes + txn_size),
               last_chunk, /*attempt=*/0, /*from_outbox=*/true);
    if (last_chunk)
        ++linesIssued;
}

void
ConditionalStoreBuffer::issueWrite(Addr addr,
                                   std::vector<std::uint8_t> payload,
                                   bool last_chunk, unsigned attempt,
                                   bool from_outbox)
{
    bool accepted = bus_.requestWrite(
        masterId_, addr, std::move(payload), /*strongly_ordered=*/true,
        /*on_complete=*/
        [this, addr, last_chunk,
         attempt](Tick when, bus::BusStatus status,
                  std::vector<std::uint8_t> &returned) {
            csb_assert(inflight_ > 0, "CSB completion underflow");
            --inflight_;
            // Only a serialized stream or a retry waits on a
            // completion, and the retire stage sees it only as a
            // drain.
            if (status != bus::BusStatus::Ok || bus_.ordersMustSerialize())
                ungate();
            if (status == bus::BusStatus::Ok && drained())
                wakeWaiter();
            if (status == bus::BusStatus::Ok) {
                if (degraded_ && ++cleanStreak_ >= params_.repromoteAfter)
                    exitDegraded(when);
                return;
            }
            if (status == bus::BusStatus::Error) {
                csb_fatal(sim::Clocked::name(),
                          ": bus error on flush write at 0x",
                          std::hex, addr);
            }
            busNacks += 1;
            cleanStreak_ = 0;
            unsigned next_attempt = attempt + 1;
            if (next_attempt >= params_.retry.maxAttempts) {
                if (!params_.degradedFallback) {
                    csb_fatal(sim::Clocked::name(),
                              ": flush retries exhausted (",
                              params_.retry.maxAttempts, ") at 0x",
                              std::hex, addr);
                }
                // Escalate instead of dying: hold the attempt count at
                // the budget so the chunk keeps retrying at the
                // maximum backoff until the target recovers.
                enterDegraded(when);
                next_attempt = attempt;
            }
            busRetries += 1;
            retryQueue_.push_back(RetryWrite{
                addr, std::move(returned), last_chunk, next_attempt,
                when + params_.retry.backoffFor(attempt + 1)});
        },
        /*on_start=*/
        [this, last_chunk, from_outbox](Tick) {
            ungate();
            presentPending_ = false;
            if (from_outbox && last_chunk) {
                outbox_.pop_front();
                wakeWaiter();
            }
        });
    csb_assert(accepted, "bus refused CSB request despite idle master");
    presentPending_ = true;
    ++inflight_;
}

void
ConditionalStoreBuffer::enterDegraded(Tick now)
{
    if (degraded_)
        return;
    degraded_ = true;
    degradedSince_ = now;
    cleanStreak_ = 0;
    degradedEntries += 1;
    sim::trace::instant("csb", now, [] {
        return sim::trace::Fields{"degraded-enter", {}};
    });
}

void
ConditionalStoreBuffer::exitDegraded(Tick now)
{
    csb_assert(degraded_, "re-promotion outside degraded mode");
    degraded_ = false;
    degradedTicks += now - degradedSince_;
    repromotions += 1;
    cleanStreak_ = 0;
    sim::trace::instant("csb", now, [&] {
        return sim::trace::Fields{
            "degraded-exit",
            {{"clean", std::to_string(params_.repromoteAfter)}}};
    });
}

void
ConditionalStoreBuffer::checkpointSave(sim::CheckpointWriter &cw) const
{
    csb_assert(drained(), "CSB checkpoint requires drained() -- flushed "
                          "lines must have completed on the bus");
    cw.putU64(lineAddr_);
    cw.putU32(pid_);
    cw.putU64(hitCounter_);
    cw.putU64(accumStartTick_);
    cw.putU32(params_.lineBytes);
    cw.putBytes(data_.data(), params_.lineBytes);
    // Valid mask, 64 bits per word, low word first.
    for (unsigned word = 0; word < maxBlockBytes / 64; ++word) {
        std::uint64_t bits = 0;
        for (unsigned bit = 0; bit < 64; ++bit)
            if (valid_.test(word * 64 + bit))
                bits |= std::uint64_t(1) << bit;
        cw.putU64(bits);
    }
    // Degraded-mode residency is sticky across a checkpoint: a CSB
    // that crashed while degraded resumes degraded.
    cw.putU8(degraded_ ? 1 : 0);
    cw.putU32(cleanStreak_);
    cw.putU64(degradedSince_);
}

void
ConditionalStoreBuffer::checkpointRestore(sim::CheckpointReader &cr)
{
    csb_assert(drained(), "CSB checkpoint restore into a busy CSB");
    lineAddr_ = cr.getU64();
    pid_ = static_cast<ProcId>(cr.getU32());
    hitCounter_ = cr.getU64();
    accumStartTick_ = cr.getU64();
    const std::uint32_t line_bytes = cr.getU32();
    if (line_bytes != params_.lineBytes)
        csb_fatal("checkpoint CSB line is ", line_bytes,
                  " bytes, this CSB uses ", params_.lineBytes);
    std::span<const std::uint8_t> bytes = cr.getBytes();
    csb_assert(bytes.size() == line_bytes, "CSB line payload size");
    data_.fill(0);
    std::memcpy(data_.data(), bytes.data(), bytes.size());
    valid_.reset();
    for (unsigned word = 0; word < maxBlockBytes / 64; ++word) {
        std::uint64_t bits = cr.getU64();
        for (unsigned bit = 0; bit < 64; ++bit)
            if (bits & (std::uint64_t(1) << bit))
                valid_.set(word * 64 + bit);
    }
    degraded_ = cr.getU8() != 0;
    cleanStreak_ = cr.getU32();
    degradedSince_ = cr.getU64();
}

void
ConditionalStoreBuffer::debugDump(std::ostream &os) const
{
    os << "counter=" << hitCounter_ << " outbox=" << outbox_.size()
       << " retryQueue=" << retryQueue_.size()
       << " inflight=" << inflight_
       << " presentPending=" << (presentPending_ ? 1 : 0)
       << " degraded=" << (degraded_ ? 1 : 0);
    if (degraded_) {
        os << " degradedSince=" << degradedSince_
           << " cleanStreak=" << cleanStreak_ << '/'
           << params_.repromoteAfter;
    }
    if (!retryQueue_.empty()) {
        const RetryWrite &head = retryQueue_.front();
        os << "\n  retry head: addr=0x" << std::hex << head.addr
           << std::dec << " attempt=" << head.attempt << '/'
           << params_.retry.maxAttempts << " earliest=" << head.earliest;
    }
}

} // namespace csb::mem
