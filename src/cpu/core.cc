#include "core.hh"

#include <algorithm>
#include <cstring>

#include "sim/checkpoint.hh"
#include "sim/trace.hh"

namespace csb::cpu {

using isa::InstClass;
using isa::Opcode;
using isa::RegId;

void
CoreParams::validate() const
{
    if (fetchWidth == 0 || retireWidth == 0 || windowSize == 0)
        csb_fatal("core widths must be non-zero");
    if (intUnits == 0)
        csb_fatal("core needs at least one integer unit");
    if (maxUncachedRetirePerCycle == 0)
        csb_fatal("core must retire at least one uncached op per cycle");
}

Core::Core(sim::Simulator &simulator, const CoreParams &params,
           const CoreMemPorts &ports, std::string name,
           sim::stats::StatGroup *stat_parent)
    : sim::Clocked(name, sim::ClockDomain(1), /*eval_order=*/0),
      sim::stats::StatGroup(name, stat_parent),
      numCycles(this, "numCycles", "cycles simulated"),
      instsRetired(this, "instsRetired", "instructions committed"),
      instsDispatched(this, "instsDispatched", "instructions dispatched"),
      branchFetchStallCycles(this, "branchFetchStallCycles",
                             "cycles fetch waited on a branch"),
      windowFullStallCycles(this, "windowFullStallCycles",
                            "cycles dispatch stalled on a full window"),
      uncachedRetireStallCycles(this, "uncachedRetireStallCycles",
                                "cycles retire stalled on uncached ops"),
      membarStallCycles(this, "membarStallCycles",
                        "cycles a MEMBAR waited for the uncached buffer"),
      csbStoreStallCycles(this, "csbStoreStallCycles",
                          "cycles retire stalled on a busy CSB"),
      contextSwitches(this, "contextSwitches", "pipeline squashes"),
      uncachedStallRuns(this, "uncachedStallRuns",
                        "consecutive cycles an uncached store waited "
                        "before retiring",
                        0, 64, 1),
      ipc(this, "ipc", "retired instructions per cycle",
          [this] {
              double cycles = numCycles.value();
              return cycles > 0 ? instsRetired.value() / cycles : 0.0;
          }),
      sim_(simulator), params_(validated(params)), ports_(ports),
      window_(params_.windowSize)
{
    csb_assert(ports_.tlb && ports_.caches && ports_.ubuf && ports_.memory,
               "core is missing a memory port");
    // The retire stage waits on exactly these two buffers' slots and
    // drains.
    ports_.ubuf->setWaiter(this);
    if (ports_.csb)
        ports_.csb->setWaiter(this);
    simulator.registerClocked(this);
}

std::size_t
Core::regSlot(const RegId &reg)
{
    return reg.isInt() ? reg.idx : isa::numIntRegs + reg.idx;
}

void
Core::clearPipeline()
{
    window_.clear();
    numDispatched_ = 0;
    lastWriter_.fill(0);
    completions_.clear();
}

void
Core::loadProgram(const isa::Program *program, ProcId pid)
{
    csb_assert(program != nullptr && program->finalized(),
               "loadProgram needs a finalized program");
    program_ = program;
    arch_ = ArchState{};
    arch_.pid = pid;
    spec_ = arch_;
    clearPipeline();
    fetchPc_ = 0;
    fetchHalted_ = false;
    fetchStallSeq_ = 0;
    switchPending_ = false;
    ++epoch_;
    ungate();
    wakeContextWaiter();
}

void
Core::recordRef(sim::TraceOp op, Addr addr, unsigned size,
                std::uint64_t value, mem::PageAttr attr,
                std::uint8_t flags)
{
    if (!traceRec_)
        return;
    sim::TraceRecord rec;
    rec.tick = sim_.curTick();
    rec.addr = addr;
    rec.value = value;
    rec.pid = arch_.pid;
    rec.op = op;
    rec.cpu = traceCpu_;
    rec.size = std::uint8_t(size);
    rec.flags = std::uint8_t(
        flags | (std::uint8_t(attr) << sim::TraceFlagAttrShift));
    traceRec_->append(rec);
}

void
Core::checkpointSave(sim::CheckpointWriter &cw) const
{
    csb_assert(window_.empty(),
               "core checkpoint requires a drained pipeline");
    for (std::uint64_t reg : arch_.intRegs)
        cw.putU64(reg);
    for (std::uint64_t reg : arch_.fpRegs)
        cw.putU64(reg);
    cw.putU64(arch_.pc);
    cw.putU32(arch_.pid);
    cw.putU8(arch_.halted ? 1 : 0);
    cw.putU64(marks_.size());
    for (const MarkRecord &mark : marks_) {
        cw.putU64(std::uint64_t(mark.first));
        cw.putU64(mark.second);
    }
    cw.putU64(nextSeq_);
    cw.putU64(epoch_);
}

void
Core::checkpointRestore(sim::CheckpointReader &cr)
{
    csb_assert(window_.empty() && program_ == nullptr,
               "core checkpoint restore requires a fresh core");
    for (std::uint64_t &reg : arch_.intRegs)
        reg = cr.getU64();
    for (std::uint64_t &reg : arch_.fpRegs)
        reg = cr.getU64();
    arch_.pc = cr.getU64();
    arch_.pid = ProcId(cr.getU32());
    arch_.halted = cr.getU8() != 0;
    spec_ = arch_;
    marks_.clear();
    const std::uint64_t num_marks = cr.getU64();
    for (std::uint64_t i = 0; i < num_marks; ++i) {
        auto id = std::int64_t(cr.getU64());
        Tick when = cr.getU64();
        marks_.emplace_back(id, when);
    }
    nextSeq_ = cr.getU64();
    epoch_ = cr.getU64();
}

Tick
Core::markTime(std::int64_t id) const
{
    for (const MarkRecord &mark : marks_) {
        if (mark.first == id)
            return mark.second;
    }
    return maxTick;
}

void
Core::requestContextSwitch(
    const isa::Program *next_program, const ArchState &next_state,
    std::function<void(const ArchState &)> on_switched)
{
    csb_assert(!switchPending_, "context switch already pending");
    csb_assert(next_program && next_program->finalized(),
               "switch target program not finalized");
    switchPending_ = true;
    nextProgram_ = next_program;
    nextState_ = next_state;
    onSwitched_ = std::move(on_switched);
    ungate();
}

void
Core::doSquashAndSwitch()
{
    ArchState saved = arch_;
    ++epoch_;
    clearPipeline();
    arch_ = nextState_;
    spec_ = arch_;
    program_ = nextProgram_;
    fetchPc_ = arch_.pc;
    fetchHalted_ = arch_.halted;
    fetchStallSeq_ = 0;
    switchPending_ = false;
    contextSwitches += 1;
    sim::trace::instant("cpu", sim_.curTick(), [&] {
        return sim::trace::Fields{"context-switch",
                                  {{"core", name()},
                                   {"pid", std::to_string(arch_.pid)},
                                   {"pc", std::to_string(arch_.pc)}}};
    });
    wakeContextWaiter();
    if (onSwitched_) {
        auto cb = std::move(onSwitched_);
        onSwitched_ = nullptr;
        cb(saved);
    }
}

sim::stats::Scalar &
Core::stallCounter(Stall which)
{
    switch (which) {
      case UncachedRetireStall: return uncachedRetireStallCycles;
      case CsbStoreStall: return csbStoreStallCycles;
      case MembarStall: return membarStallCycles;
      case WindowFullStall: return windowFullStallCycles;
      default: return branchFetchStallCycles;
    }
}

void
Core::noteStall(Stall which)
{
    stalls_ |= 1u << which;
    stallCounter(which) += 1;
    if (which == UncachedRetireStall || which == CsbStoreStall)
        ++uncachedStallRun_;
}

void
Core::accrueSkipped(Tick until)
{
    std::uint64_t cycles = takeSkippedEdges(until);
    if (cycles == 0)
        return;
    numCycles += double(cycles);
    for (unsigned which = 0; which < numStalls; ++which) {
        if (stalls_ & (1u << which))
            stallCounter(Stall(which)) += double(cycles);
    }
    if (stalls_ & ((1u << UncachedRetireStall) | (1u << CsbStoreStall)))
        uncachedStallRun_ += unsigned(cycles);
}

void
Core::settle()
{
    accrueSkipped(sim_.curTick());
}

void
Core::tick()
{
    Tick now = sim_.curTick();
    accrueSkipped(now);
    drainCompletions(now);
    stalls_ = 0;
    worked_ = false;

    numCycles += 1;
    if (switchPending_) {
        // Squash only when no non-speculative head operation is in
        // flight, preserving exactly-once semantics for I/O.
        if (window_.empty() || !window_.front().headOpStarted) {
            doSquashAndSwitch();
            worked_ = true;
        }
    }
    if (program_ != nullptr) {
        retireStage();
        issueStage();
        fetchStage();
    }
    if (worked_)
        return;
    if (completions_.empty())
        gate();
    else
        sleepUntil(completions_.front().when);
}

// ---------------------------------------------------------------------
// Dispatch helpers

std::pair<RegId, RegId>
Core::sourcesOf(const isa::Instruction &inst)
{
    switch (inst.instClass()) {
      case InstClass::IntAlu:
      case InstClass::FpAlu:
        return {inst.rs1, inst.rs2};
      case InstClass::Load:
        return {inst.rs1, isa::noReg};
      case InstClass::Store:
        return {inst.rs1, inst.rs2};
      case InstClass::Swap:
        // rd supplies the value written to memory (and, for the
        // conditional flush, the expected hit count).
        return {inst.rs1, inst.rd};
      case InstClass::Branch:
        return {inst.rs1, inst.rs2};
      default:
        return {isa::noReg, isa::noReg};
    }
}

RegId
Core::destOf(const isa::Instruction &inst)
{
    switch (inst.instClass()) {
      case InstClass::IntAlu:
      case InstClass::FpAlu:
      case InstClass::Load:
      case InstClass::Swap:
        return inst.rd;
      default:
        return isa::noReg;
    }
}

std::size_t
Core::windowIndex(std::uint64_t seq) const
{
    return std::size_t(seq - window_.front().seq);
}

Core::DynInst *
Core::findBySeq(std::uint64_t seq)
{
    // A retired or squashed seq is below the front (or the window is
    // empty); unsigned wrap-around turns it into an out-of-range index.
    if (window_.empty() || windowIndex(seq) >= window_.size())
        return nullptr;
    return &window_[windowIndex(seq)];
}

void
Core::captureOperand(const RegId &reg, std::uint64_t &producer,
                     std::uint64_t &value)
{
    producer = 0;
    if (!reg.valid() || reg.isZero()) {
        value = 0;
        return;
    }
    if (DynInst *writer = findBySeq(lastWriter_[regSlot(reg)])) {
        if (writer->state == State::Done) {
            value = writer->result;
        } else {
            producer = writer->seq;
            ++writer->consumers;
            value = 0;
        }
        return;
    }
    value = spec_.readReg(reg);
}

bool
Core::operandsReady(const DynInst &inst) const
{
    return inst.src1Producer == 0 && inst.src2Producer == 0;
}

void
Core::fetchStage()
{
    if (fetchHalted_ || program_ == nullptr)
        return;
    if (fetchStallSeq_ != 0) {
        noteStall(BranchFetchStall);
        return;
    }

    Tick now = sim_.curTick();
    unsigned fetched = 0;
    while (fetched < params_.fetchWidth) {
        if (window_.size() >= params_.windowSize) {
            noteStall(WindowFullStall);
            break;
        }
        csb_assert(fetchPc_ < program_->size(),
                   "fetch fell off the end of the program");
        const isa::Instruction &inst = program_->at(fetchPc_);

        DynInst di;
        di.seq = nextSeq_++;
        di.pc = fetchPc_;
        di.inst = inst;
        di.dispatchTick = now;

        auto [s1, s2] = sourcesOf(inst);
        captureOperand(s1, di.src1Producer, di.src1Val);
        captureOperand(s2, di.src2Producer, di.src2Val);

        InstClass cls = inst.instClass();
        if (cls == InstClass::Nop || cls == InstClass::Mark ||
            cls == InstClass::Halt || cls == InstClass::Membar) {
            di.state = State::Done;
        } else {
            ++numDispatched_;
        }

        bool branch_resolved_taken = false;
        bool branch_stalls = false;
        if (cls == InstClass::Branch) {
            if (operandsReady(di)) {
                di.resolved = true;
                di.taken = evalBranch(inst.op, di.src1Val, di.src2Val);
                branch_resolved_taken = di.taken;
            } else {
                branch_stalls = true;
            }
        }

        RegId rd = destOf(inst);
        std::uint64_t seq = di.seq;
        window_.emplace_back(di);
        instsDispatched += 1;
        worked_ = true;
        ++fetched;
        if (rd.valid() && !rd.isZero())
            lastWriter_[regSlot(rd)] = seq;

        if (cls == InstClass::Branch) {
            if (branch_stalls) {
                fetchStallSeq_ = seq;
                break;
            }
            if (branch_resolved_taken) {
                fetchPc_ = static_cast<std::uint64_t>(inst.target);
                break; // one fetch redirect per cycle
            }
            ++fetchPc_;
        } else if (cls == InstClass::Halt) {
            fetchHalted_ = true;
            break;
        } else {
            ++fetchPc_;
        }
    }
}

// ---------------------------------------------------------------------
// Issue / execute

void
Core::markIssued(DynInst &inst)
{
    inst.state = State::Issued;
    --numDispatched_;
    worked_ = true;
}

void
Core::finishInst(DynInst &inst, std::uint64_t result)
{
    csb_assert(inst.state != State::Done, "double writeback of seq ",
               inst.seq);
    inst.result = result;
    inst.state = State::Done;

    RegId rd = destOf(inst.inst);
    if (rd.valid() && !rd.isZero() && lastWriter_[regSlot(rd)] == inst.seq)
        spec_.writeReg(rd, result);

    // Only younger instructions can consume this result, and the
    // scan stops once every waiting operand has it.
    for (std::size_t i = windowIndex(inst.seq) + 1;
         inst.consumers > 0 && i < window_.size(); ++i) {
        DynInst &di = window_[i];
        if (di.src1Producer == inst.seq) {
            di.src1Producer = 0;
            di.src1Val = result;
            --inst.consumers;
        }
        if (di.src2Producer == inst.seq) {
            di.src2Producer = 0;
            di.src2Val = result;
            --inst.consumers;
        }
    }

    if (inst.inst.instClass() == InstClass::Branch) {
        if (!inst.resolved) {
            inst.resolved = true;
            inst.taken =
                evalBranch(inst.inst.op, inst.src1Val, inst.src2Val);
        }
        if (fetchStallSeq_ == inst.seq) {
            fetchStallSeq_ = 0;
            fetchPc_ = inst.taken
                           ? static_cast<std::uint64_t>(inst.inst.target)
                           : inst.pc + 1;
        }
    }
}

void
Core::finishFromCallback(DynInst &inst, std::uint64_t result)
{
    finishInst(inst, result);
    ungate();
}

void
Core::finishAt(Tick when, std::uint64_t seq, std::uint64_t result)
{
    // The window bounds what can be pending: reserve it once, so a
    // warm core never allocates here.
    if (completions_.capacity() == 0)
        completions_.reserve(params_.windowSize);
    auto later = std::upper_bound(
        completions_.begin(), completions_.end(), when,
        [](Tick t, const Completion &c) { return t < c.when; });
    completions_.insert(later, Completion{when, seq, result});
}

void
Core::drainCompletions(Tick now)
{
    std::size_t due = 0;
    for (; due < completions_.size() && completions_[due].when <= now;
         ++due) {
        const Completion &c = completions_[due];
        DynInst *inst = findBySeq(c.seq);
        csb_assert(inst, "completion for seq ", c.seq,
                   " outside the window");
        finishInst(*inst, c.result);
    }
    completions_.erase(completions_.begin(),
                       completions_.begin() + std::ptrdiff_t(due));
}

bool
Core::loadBlockedByStore(const DynInst &load, std::uint64_t &fwd_val,
                         bool &can_forward) const
{
    can_forward = false;
    // Scan older stores youngest-first: the nearest older store in
    // program order owns the bytes the load reads, so it alone decides
    // between forwarding and waiting.  (An oldest-first scan acted on
    // the first match instead and forwarded one-generation-stale data
    // whenever two same-address stores were in flight, as in a tight
    // read-modify-write loop.)  Anything older than the deciding store
    // is irrelevant: the younger store supersedes its bytes.
    for (std::size_t i = windowIndex(load.seq); i-- > 0;) {
        const DynInst &di = window_[i];
        if (!isStore(di.inst.op))
            continue;
        if (!di.addrKnown)
            return true; // conservative: unknown older store address
        Addr lo = di.effAddr;
        Addr hi = di.effAddr + di.size;
        bool overlap = load.effAddr < hi && lo < load.effAddr + load.size;
        if (!overlap)
            continue;
        // Exact match against a plain cached store with its data
        // ready forwards; everything else waits for the store to
        // retire.  Uncached data is never forwarded (section 4.1).
        if (di.inst.instClass() == InstClass::Store &&
            di.attr == mem::PageAttr::Cached &&
            di.effAddr == load.effAddr && di.size == load.size &&
            di.src2Producer == 0) {
            // Forward only the bytes the store actually writes: a
            // narrow store truncates its register at memory, so the
            // forwarded value must be truncated the same way (found by
            // the litmus harness, tests/litmus/corpus/fwd_mask).
            fwd_val = di.size >= 8
                          ? di.src2Val
                          : di.src2Val &
                                ((std::uint64_t(1) << (di.size * 8)) - 1);
            can_forward = true;
        }
        return true;
    }
    return false;
}

void
Core::issueStage()
{
    // Oldest first, over the span from the oldest to the youngest
    // Dispatched entry only: a window full of stores waiting at retire
    // costs nothing here.
    if (numDispatched_ == 0)
        return;
    std::size_t i = 0;
    if (issueFrom_ > window_.front().seq)
        i = windowIndex(issueFrom_);
    while (window_[i].state != State::Dispatched)
        ++i;
    issueFrom_ = window_[i].seq;

    unsigned int_free = params_.intUnits;
    unsigned fp_free = params_.fpUnits;
    unsigned mem_free = params_.memPorts;
    Tick now = sim_.curTick();
    for (unsigned unseen = numDispatched_; unseen > 0; ++i) {
        DynInst &di = window_[i];
        if (di.state != State::Dispatched)
            continue;
        --unseen;
        if (di.dispatchTick == now || !operandsReady(di))
            continue;

        InstClass cls = di.inst.instClass();
        std::uint64_t seq = di.seq;
        std::uint64_t epoch = epoch_;

        if (cls == InstClass::IntAlu || cls == InstClass::FpAlu) {
            unsigned &pool = cls == InstClass::IntAlu ? int_free : fp_free;
            if (pool == 0)
                continue;
            --pool;
            std::uint64_t a = di.src1Val;
            std::uint64_t b = di.inst.rs2.valid()
                                  ? di.src2Val
                                  : static_cast<std::uint64_t>(di.inst.imm);
            std::uint64_t result = evalAlu(di.inst.op, a, b);
            Tick lat = params_.intLatency;
            if (di.inst.op == Opcode::Mul)
                lat = params_.mulLatency;
            else if (cls == InstClass::FpAlu)
                lat = params_.fpLatency;
            markIssued(di);
            finishAt(now + lat, seq, result);
        } else if (cls == InstClass::Branch) {
            if (int_free == 0)
                continue;
            --int_free;
            markIssued(di);
            finishAt(now + params_.intLatency, seq, 0);
        } else if (cls == InstClass::Load || cls == InstClass::Store ||
                   cls == InstClass::Swap) {
            if (mem_free == 0)
                continue;

            // Address generation + translation.
            Addr addr = di.src1Val + static_cast<std::uint64_t>(di.inst.imm);
            unsigned size = isa::accessSize(di.inst.op);
            if (addr % size != 0) {
                csb_fatal("misaligned ", isa::mnemonic(di.inst.op),
                          " to 0x", std::hex, addr, std::dec, " at pc ",
                          di.pc);
            }
            Tick tlb_penalty = 0;
            mem::PageAttr attr =
                ports_.tlb->translate(addr, arch_.pid, tlb_penalty);
            worked_ = true;
            di.effAddr = addr;
            di.size = size;
            di.attr = attr;
            di.addrKnown = true;

            if (cls == InstClass::Store) {
                --mem_free;
                markIssued(di);
                // Address and data are staged; the store takes effect
                // at commit.
                finishAt(now + params_.intLatency + tlb_penalty, seq, 0);
            } else if (cls == InstClass::Swap) {
                --mem_free;
                // Executes non-speculatively at the window head.
                markIssued(di);
            } else if (attr == mem::PageAttr::Cached) {
                std::uint64_t fwd = 0;
                bool can_forward = false;
                if (loadBlockedByStore(di, fwd, can_forward)) {
                    if (!can_forward)
                        continue; // retry next cycle
                    --mem_free;
                    markIssued(di);
                    finishAt(now + params_.intLatency + tlb_penalty, seq,
                             fwd);
                } else {
                    --mem_free;
                    markIssued(di);
                    recordRef(sim::TraceOp::CachedLoad, addr, size,
                              tlb_penalty, attr);
                    ports_.caches->access(
                        addr, /*is_write=*/false, now + tlb_penalty,
                        [this, seq, epoch](Tick) {
                            if (epoch != epoch_)
                                return;
                            DynInst *p = findBySeq(seq);
                            if (!p)
                                return;
                            std::uint64_t bits = 0;
                            ports_.memory->read(p->effAddr, &bits,
                                                p->size);
                            finishFromCallback(*p, bits);
                        });
                }
            } else {
                --mem_free;
                // Uncached load: executes at the window head.
                markIssued(di);
            }
        }
        // Nop/Mark/Halt/Membar are Done at dispatch.
    }
}

// ---------------------------------------------------------------------
// Retire

void
Core::retireStage()
{
    unsigned retired = 0;
    unsigned uncached_retired = 0;
    while (retired < params_.retireWidth && !window_.empty()) {
        if (!commitHead(uncached_retired))
            break;
        ++retired;
    }
    if (retired > 0) {
        worked_ = true;
        sim_.noteProgress();
    }
}

void
Core::startHeadSwap(DynInst &head)
{
    Tick now = sim_.curTick();
    std::uint64_t seq = head.seq;
    std::uint64_t epoch = epoch_;

    if (head.attr == mem::PageAttr::Cached) {
        head.headOpStarted = true;
        worked_ = true;
        recordRef(sim::TraceOp::CachedSwapStart, head.effAddr,
                  head.size, head.src2Val, head.attr,
                  sim::TraceFlagSwap);
        ports_.caches->access(
            head.effAddr, /*is_write=*/true, now,
            [this, seq, epoch](Tick) {
                if (epoch != epoch_)
                    return;
                DynInst *p = findBySeq(seq);
                if (!p)
                    return;
                // Atomic read-modify-write.
                std::uint64_t old = 0;
                ports_.memory->read(p->effAddr, &old, p->size);
                recordRef(sim::TraceOp::SwapMemWrite, p->effAddr,
                          p->size, p->src2Val, p->attr,
                          sim::TraceFlagSwap | sim::TraceFlagEventPhase);
                ports_.memory->write(p->effAddr, &p->src2Val, p->size);
                finishFromCallback(*p, old);
            });
        return;
    }

    if (head.attr == mem::PageAttr::UncachedCombining && ports_.csb) {
        // The conditional flush (section 3.2): the swap value is the
        // expected hit count; success leaves it unchanged, failure
        // returns zero.
        head.headOpStarted = true;
        worked_ = true;
        recordRef(sim::TraceOp::CsbFlush, head.effAddr, head.size,
                  head.src2Val, head.attr, sim::TraceFlagSwap);
        bool ok = ports_.csb->conditionalFlush(arch_.pid, head.effAddr,
                                               head.src2Val);
        finishAt(now + params_.csbFlushLatency, seq,
                 ok ? head.src2Val : 0);
        return;
    }

    // Plain uncached swap: an atomic bus read-modify-write through the
    // uncached buffer, blocking retire until complete.
    if (!ports_.ubuf->canAcceptLoad())
        return; // retry next cycle
    head.headOpStarted = true;
    worked_ = true;
    recordRef(sim::TraceOp::UncachedLoad, head.effAddr, head.size, 0,
              head.attr, sim::TraceFlagSwap);
    ports_.ubuf->pushLoad(
        head.effAddr, head.size,
        [this, seq, epoch](Tick, const std::vector<std::uint8_t> &data) {
            if (epoch != epoch_)
                return;
            DynInst *p = findBySeq(seq);
            if (!p)
                return;
            std::uint64_t old = 0;
            std::memcpy(&old, data.data(),
                        std::min<std::size_t>(data.size(), 8));
            csb_assert(ports_.ubuf->canAcceptStore(p->effAddr, p->size),
                       "uncached buffer full during atomic swap");
            recordRef(sim::TraceOp::UncachedStore, p->effAddr, p->size,
                      p->src2Val, p->attr,
                      sim::TraceFlagSwap | sim::TraceFlagEventPhase);
            ports_.ubuf->pushStore(p->effAddr, p->size, &p->src2Val);
            finishFromCallback(*p, old);
        });
}

void
Core::startHeadUncachedLoad(DynInst &head)
{
    if (!ports_.ubuf->canAcceptLoad())
        return; // retry next cycle
    std::uint64_t seq = head.seq;
    std::uint64_t epoch = epoch_;
    head.headOpStarted = true;
    worked_ = true;
    recordRef(sim::TraceOp::UncachedLoad, head.effAddr, head.size, 0,
              head.attr);
    ports_.ubuf->pushLoad(
        head.effAddr, head.size,
        [this, seq, epoch](Tick, const std::vector<std::uint8_t> &data) {
            if (epoch != epoch_)
                return;
            DynInst *p = findBySeq(seq);
            if (!p)
                return;
            std::uint64_t bits = 0;
            std::memcpy(&bits, data.data(),
                        std::min<std::size_t>(data.size(), 8));
            finishFromCallback(*p, bits);
        });
}

bool
Core::commitStore(DynInst &head, unsigned &uncached_retired)
{
    if (head.attr == mem::PageAttr::Cached) {
        recordRef(sim::TraceOp::CachedStore, head.effAddr, head.size,
                  head.src2Val, head.attr);
        ports_.memory->write(head.effAddr, &head.src2Val, head.size);
        // Tag update only; store latency is absorbed by write buffers.
        ports_.caches->accessLatency(head.effAddr, /*is_write=*/true);
        return true;
    }

    // All flavours of uncached stores obey the per-cycle retire limit.
    if (uncached_retired >= params_.maxUncachedRetirePerCycle) {
        noteStall(UncachedRetireStall);
        return false;
    }

    if (head.attr == mem::PageAttr::UncachedCombining && ports_.csb) {
        if (!ports_.csb->canAcceptStore()) {
            noteStall(CsbStoreStall);
            return false;
        }
        recordRef(sim::TraceOp::CsbStore, head.effAddr, head.size,
                  head.src2Val, head.attr);
        ports_.csb->store(arch_.pid, head.effAddr, head.size,
                          &head.src2Val);
        ++uncached_retired;
        uncachedStallRuns.sample(uncachedStallRun_);
        uncachedStallRun_ = 0;
        return true;
    }

    if (!ports_.ubuf->canAcceptStore(head.effAddr, head.size)) {
        noteStall(UncachedRetireStall);
        return false;
    }
    recordRef(sim::TraceOp::UncachedStore, head.effAddr, head.size,
              head.src2Val, head.attr);
    ports_.ubuf->pushStore(head.effAddr, head.size, &head.src2Val);
    ++uncached_retired;
    uncachedStallRuns.sample(uncachedStallRun_);
    uncachedStallRun_ = 0;
    return true;
}

bool
Core::commitHead(unsigned &uncached_retired)
{
    DynInst &head = window_.front();
    InstClass cls = head.inst.instClass();
    Tick now = sim_.curTick();

    switch (cls) {
      case InstClass::Membar:
        // Drain the uncached buffer (paper section 4.1) and any
        // flushed-but-unsent CSB lines, so that device writes issued
        // after the barrier cannot pass earlier I/O traffic.
        if (!ports_.ubuf->empty() ||
            (ports_.csb && !ports_.csb->drained())) {
            noteStall(MembarStall);
            return false;
        }
        recordRef(sim::TraceOp::Membar, 0, 0, 0, mem::PageAttr::Cached);
        break;

      case InstClass::Store:
        if (head.state != State::Done)
            return false;
        if (!commitStore(head, uncached_retired))
            return false;
        break;

      case InstClass::Swap:
        if (head.state != State::Done) {
            if (!head.headOpStarted && head.addrKnown)
                startHeadSwap(head);
            return false;
        }
        break;

      case InstClass::Load:
        if (head.state != State::Done) {
            if (head.addrKnown && head.attr != mem::PageAttr::Cached &&
                !head.headOpStarted) {
                startHeadUncachedLoad(head);
            }
            return false;
        }
        break;

      case InstClass::Mark:
        marks_.emplace_back(head.inst.imm, now);
        break;

      case InstClass::Halt:
        arch_.halted = true;
        fetchHalted_ = true;
        wakeContextWaiter();
        break;

      default:
        if (head.state != State::Done)
            return false;
        break;
    }

    // Commit.
    RegId rd = destOf(head.inst);
    if (rd.valid() && !rd.isZero())
        arch_.writeReg(rd, head.result);

    if (cls == InstClass::Branch) {
        csb_assert(head.resolved, "retiring an unresolved branch");
        arch_.pc = head.taken
                       ? static_cast<std::uint64_t>(head.inst.target)
                       : head.pc + 1;
    } else {
        arch_.pc = head.pc + 1;
    }

    instsRetired += 1;
    window_.pop_front();
    return true;
}

} // namespace csb::cpu
