#include "physical_memory.hh"

#include <algorithm>
#include <cstring>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace csb::mem {

PhysicalMemory::Frame *
PhysicalMemory::frameFor(Addr addr, bool create) const
{
    Addr frame_base = roundDown(addr, frameSize);
    auto it = frames_.find(frame_base);
    if (it != frames_.end())
        return it->second.get();
    if (!create)
        return nullptr;
    auto frame = std::make_unique<Frame>();
    frame->fill(0);
    Frame *raw = frame.get();
    frames_.emplace(frame_base, std::move(frame));
    return raw;
}

void
PhysicalMemory::read(Addr addr, void *buffer, std::size_t size) const
{
    auto *out = static_cast<std::uint8_t *>(buffer);
    while (size > 0) {
        Addr offset = addr % frameSize;
        std::size_t chunk =
            std::min<std::size_t>(size, frameSize - offset);
        const Frame *frame = frameFor(addr, /*create=*/false);
        if (frame) {
            std::memcpy(out, frame->data() + offset, chunk);
        } else {
            std::memset(out, 0, chunk);
        }
        out += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
PhysicalMemory::write(Addr addr, const void *buffer, std::size_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buffer);
    while (size > 0) {
        Addr offset = addr % frameSize;
        std::size_t chunk =
            std::min<std::size_t>(size, frameSize - offset);
        Frame *frame = frameFor(addr, /*create=*/true);
        std::memcpy(frame->data() + offset, in, chunk);
        in += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
PhysicalMemory::checkpointSave(sim::CheckpointWriter &cw) const
{
    std::vector<Addr> bases;
    bases.reserve(frames_.size());
    for (const auto &[base, frame] : frames_)
        bases.push_back(base);
    std::sort(bases.begin(), bases.end());

    cw.putU64(bases.size());
    for (Addr base : bases) {
        cw.putU64(base);
        cw.putBytes(frames_.at(base)->data(), frameSize);
    }
}

void
PhysicalMemory::checkpointRestore(sim::CheckpointReader &cr)
{
    csb_assert(frames_.empty(),
               "memory checkpoint restore requires empty memory");
    const std::uint64_t count = cr.getU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr base = cr.getU64();
        std::span<const std::uint8_t> bytes = cr.getBytes();
        if (bytes.size() != frameSize)
            csb_fatal("checkpoint memory frame at 0x", std::hex, base,
                      std::dec, " has ", bytes.size(), " bytes, want ",
                      frameSize);
        write(base, bytes.data(), bytes.size());
    }
}

} // namespace csb::mem
