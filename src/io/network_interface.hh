/**
 * @file
 * A network interface model in the style of the NIs the paper cites
 * (Atoll, HP Medusa): a memory-mapped device with
 *
 *  - a PIO transmit window: uncached/combined stores append payload
 *    bytes; a doorbell write finalizes the message;
 *  - a descriptor register: a single doubleword store packs
 *    {source address, length} and kicks a DMA transfer (Atoll-style);
 *    a CSB line burst to the descriptor region pushes up to
 *    line/8 descriptors atomically (zero doublewords are padding);
 *  - a DMA engine that fetches payload from main memory over the
 *    system bus in line-sized reads;
 *  - a serial wire with configurable bandwidth and latency delivering
 *    packets to a receive log.
 *
 * Register map (offsets from the NI base address; each region sits in
 * its own page so it can carry its own memory attribute):
 *   [0x0000, 0x1000)  descriptor push region
 *   [0x1000]          doorbell: value = message length in bytes
 *   [0x2000, 0x3000)  PIO payload window
 */

#ifndef CSB_IO_NETWORK_INTERFACE_HH
#define CSB_IO_NETWORK_INTERFACE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bus/retry.hh"
#include "bus/system_bus.hh"
#include "mem/physical_memory.hh"
#include "sim/clocked.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace csb::io {

/** Offsets within the NI's bus window. */
struct NiMap
{
    static constexpr Addr descBase = 0x0000;
    static constexpr Addr descSize = 0x1000;
    static constexpr Addr doorbell = 0x1000;
    static constexpr Addr pioBase = 0x2000;
    static constexpr Addr pioSize = 0x1000;
    static constexpr Addr windowSize = 0x4000;
};

/** Pack an Atoll-style DMA descriptor into one doubleword. */
constexpr std::uint64_t
packDescriptor(Addr source, std::uint16_t length)
{
    return (source << 16) | length;
}

/** A message delivered by the wire. */
struct DeliveredMessage
{
    std::vector<std::uint8_t> payload;
    /** Tick the message entered the wire (transmit complete at NI). */
    Tick sendTick = 0;
    /** Tick the last byte arrived at the far end. */
    Tick deliverTick = 0;
    /** True when the payload was fetched by DMA, false for PIO. */
    bool viaDma = false;
    /** Wire sequence number (unique per accepted message). */
    std::uint64_t seq = 0;
};

/** NI configuration. */
struct NetworkInterfaceParams
{
    /** Wire bandwidth: CPU ticks per payload byte. */
    double wireTicksPerByte = 0.5;
    /** Wire propagation latency in CPU ticks. */
    Tick wireLatency = 200;
    /** Fixed DMA engine startup cost per descriptor, CPU ticks. */
    Tick dmaStartupTicks = 60;
    /** Burst size of DMA line reads. */
    unsigned dmaBurstBytes = 64;
    /** Pipelined outstanding DMA reads (real engines prefetch). */
    unsigned dmaMaxOutstanding = 4;
    /** Latency of NI register reads. */
    Tick readLatency = 12;
    /**
     * Force the reliable wire protocol (sequence numbers, checksum,
     * ack + timeout retransmit, duplicate suppression) even when no
     * wire faults are configured.  The protocol turns itself on
     * automatically when the attached fault plan enables wire faults.
     */
    bool reliableWire = false;
    /** Acknowledgment propagation latency back across the wire. */
    Tick ackLatency = 200;
    /** Retransmit timer, armed when a packet finishes transmitting. */
    Tick retransmitTimeout = 4096;
    /** Send attempts per packet before giving up fatally. */
    unsigned maxSendAttempts = 16;
    /**
     * Recovery protocol (docs/FAULTS.md): when a packet exhausts its
     * send budget, instead of a fatal error the NI declares the link
     * down, quiesces the wire for linkResetLatency ticks, reinits the
     * DMA retry engine, and replays every unacknowledged packet from
     * the retransmit window in sequence order.  Off by default: the
     * legacy fatal keeps misconfigured runs loud.
     */
    bool linkReset = false;
    /** Ticks the wire stays quiesced during a link reset. */
    Tick linkResetLatency = 2048;
    /** Backoff schedule for DMA reads NACKed on the bus. */
    bus::RetryPolicy retry;

    /** Throws FatalError naming the first invalid knob. */
    void validate() const;
};

/**
 * The network interface: a bus target (register window) plus a bus
 * master (DMA engine) plus a wire.
 */
class NetworkInterface : public bus::BusTarget,
                         public sim::Clocked,
                         public sim::stats::StatGroup
{
  public:
    NetworkInterface(sim::Simulator &simulator, bus::SystemBus &bus,
                     Addr base, const NetworkInterfaceParams &params,
                     std::string name = "ni",
                     sim::stats::StatGroup *stat_parent = nullptr);

    const std::string &targetName() const override { return name_; }

    void write(bus::BusTransaction &txn, Tick now) override;

    Tick read(const bus::BusTransaction &txn, Tick now,
              std::vector<std::uint8_t> &data) override;

    void tick() override;

    /** Messages fully delivered at the far end of the wire. */
    const std::vector<DeliveredMessage> &delivered() const
    {
        return delivered_;
    }

    /** @return true when no DMA or wire activity is pending. */
    bool idle() const;

    Addr base() const { return base_; }

    /**
     * Attach the system's fault injector (null to detach).  The NI
     * consults the WireDrop / WireCorrupt / AckDrop sites and the bus
     * NACK handling of its DMA port; wire faults implicitly enable
     * the reliable wire protocol.
     */
    void setFaultInjector(sim::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** @return true when the reliable wire protocol is active. */
    bool reliableMode() const
    {
        return params_.reliableWire ||
               (injector_ && injector_->plan().wireFaultsEnabled());
    }

    void debugDump(std::ostream &os) const override;

    /**
     * Serialize the PIO accumulation buffer, wire availability, the
     * delivered-message log and the reliable-protocol sequence state.
     * @pre idle() -- no DMA or wire activity may be pending, though a
     * partially written PIO message is allowed.
     */
    void checkpointSave(sim::CheckpointWriter &cw) const;

    /** Restore state written by checkpointSave().  @pre idle() */
    void checkpointRestore(sim::CheckpointReader &cr);

    sim::stats::Scalar pioMessages;
    sim::stats::Scalar dmaMessages;
    sim::stats::Scalar bytesSent;
    sim::stats::Scalar descriptorsPushed;
    /** Ticks the wire spent transmitting payload bytes. */
    sim::stats::Scalar wireBusyTicks;
    /** DMA reads NACKed on the bus. */
    sim::stats::Scalar busNacks;
    /** NACKed DMA reads reissued after backoff. */
    sim::stats::Scalar busRetries;
    /** Packets retransmitted after an ack timeout. */
    sim::stats::Scalar retransmits;
    /** Duplicate arrivals suppressed at the receiver. */
    sim::stats::Scalar duplicatesSuppressed;
    /** Arrivals discarded for a checksum mismatch. */
    sim::stats::Scalar checksumDiscards;
    /** Link resets performed after send-budget exhaustion. */
    sim::stats::Scalar linkResets;
    /** Ticks from first link reset to the window draining empty. */
    sim::stats::Scalar linkDownTicks;
    /** Recovery episodes completed (window drained after a reset). */
    sim::stats::Scalar linkRecoveries;
    /** Payload size of each message entering the wire. */
    sim::stats::Distribution messageBytes;

  private:
    struct DmaJob
    {
        Addr source = 0;
        unsigned length = 0;
        /** Bytes whose reads have been issued to the bus. */
        unsigned issued = 0;
        /** Bytes received back (responses return in order). */
        unsigned fetched = 0;
        /** Reads issued but not yet answered. */
        unsigned outstanding = 0;
        std::vector<std::uint8_t> payload;
        Tick startTick = 0;
        bool startupDone = false;
    };

    /** A DMA read NACKed on the bus, waiting out its backoff. */
    struct DmaRetry
    {
        Addr addr = 0;
        unsigned size = 0;
        /** Byte offset of this read within the job's payload. */
        unsigned offset = 0;
        unsigned attempt = 0;
        Tick earliest = 0;
    };

    /** An unacknowledged packet owned by the sender (reliable mode). */
    struct WirePacket
    {
        std::uint64_t seq = 0;
        std::vector<std::uint8_t> payload;
        std::uint64_t checksum = 0;
        bool viaDma = false;
        unsigned attempts = 0;
        Tick firstSendTick = 0;
    };

    void pushDescriptor(std::uint64_t desc, Tick now);
    void finishMessage(std::vector<std::uint8_t> payload, Tick now,
                       bool via_dma);
    /** Put one (re)transmission of @p seq onto the wire. */
    void transmitPacket(std::uint64_t seq, Tick now);
    /** Receiver side: a packet's last byte arrived. */
    void receivePacket(std::uint64_t seq,
                       std::vector<std::uint8_t> wire_bytes,
                       std::uint64_t claimed_checksum, Tick send_done,
                       Tick arrival, bool via_dma);
    void issueDmaRead(Addr addr, unsigned size, unsigned offset,
                      unsigned attempt);
    /**
     * Link-down recovery: quiesce the wire, reinit the DMA retry
     * engine, zero every unacked packet's attempt count (disarming
     * stale retransmit timers), and replay the retransmit window in
     * sequence order once the wire comes back.
     */
    void performLinkReset(Tick now);

    sim::Simulator &sim_;
    bus::SystemBus &bus_;
    Addr base_;
    NetworkInterfaceParams params_;
    std::string name_;
    MasterId masterId_;
    sim::FaultInjector *injector_ = nullptr;

    std::vector<std::uint8_t> pioBuffer_;
    std::deque<DmaJob> dmaQueue_;
    /** NACKed DMA reads of the front job awaiting reissue. */
    std::deque<DmaRetry> dmaRetries_;
    /** Wire is busy until this tick. */
    Tick wireFreeAt_ = 0;
    unsigned messagesInWire_ = 0;
    std::vector<DeliveredMessage> delivered_;

    // Reliable wire protocol state (all empty in legacy mode).
    std::uint64_t nextSeq_ = 1;
    /** Sender: packets sent but not yet positively acknowledged. */
    std::map<std::uint64_t, WirePacket> unacked_;
    /** Receiver: sequence numbers already delivered (dup filter). */
    std::set<std::uint64_t> deliveredSeqs_;
    /**
     * First link reset of the current recovery episode, or maxTick
     * when the link is healthy.  Transient: checkpoints require an
     * idle NI, and an empty retransmit window closes the episode.
     */
    Tick resetStartTick_ = maxTick;
};

} // namespace csb::io

#endif // CSB_IO_NETWORK_INTERFACE_HH
