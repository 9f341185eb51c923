#include "campaign.hh"

#include <iomanip>
#include <ostream>
#include <set>

#include "health.hh"
#include "io/network_interface.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "system.hh"
#include "workloads.hh"

namespace csb::core {

void
CampaignScenario::validate() const
{
    if (legs < 1)
        csb_fatal("campaign needs at least one leg");
    if (messagesPerLeg < 1)
        csb_fatal("campaign legs need messages");
    if (crashAfterLeg >= static_cast<int>(legs))
        csb_fatal("crash leg ", crashAfterLeg, " out of range (",
                  legs, " legs)");
    if (crashAfterLeg >= 0 && crashAfterTicks < 1)
        csb_fatal("crash needs a positive tick offset");
    if (csbRetryMaxAttempts < 1 || ubufRetryMaxAttempts < 1 ||
        niMaxSendAttempts < 1)
        csb_fatal("retry budgets must be >= 1");
    if (legMaxTicks < 1)
        csb_fatal("leg tick budget must be positive");
    // Parse errors surface here rather than mid-campaign.
    sim::parseFaultSchedule(schedule);
}

std::vector<CampaignScenario>
builtinScenarios()
{
    std::vector<CampaignScenario> all;

    // Window placement: a clean 3x12-message leg lasts ~2500 ticks,
    // so adversity is concentrated in the first ~2 legs and the
    // campaign proves recovery by finishing clean afterwards.

    CampaignScenario burst;
    burst.name = "burst-nack";
    burst.schedule = "burst:bus-write-nack:1000..6000:0.3";
    all.push_back(burst);

    CampaignScenario hang;
    hang.name = "device-hang";
    hang.deviceLines = 6;
    hang.schedule = "hang:2000..3500";
    all.push_back(hang);

    CampaignScenario flap;
    flap.name = "link-flap";
    flap.schedule = "flap:1000..30000";
    all.push_back(flap);

    CampaignScenario storm;
    storm.name = "ack-storm";
    storm.schedule = "storm:ack-drop:1000..20000:0.05x2/3000";
    all.push_back(storm);

    CampaignScenario brown;
    brown.name = "brownout-locked";
    brown.useCsb = false;
    brown.schedule = "brownout:bus-write-nack:1000..20000:4000/1500:0.5";
    all.push_back(brown);

    // The acceptance scenario: a 30% NACK burst, a device hang and a
    // mid-campaign crash-restart in one run.
    CampaignScenario combined;
    combined.name = "combined";
    combined.schedule =
        "burst:bus-write-nack:1000..12000:0.3;hang:3000..7000";
    combined.crashAfterLeg = 1;
    combined.crashAfterTicks = 1500;
    all.push_back(combined);

    return all;
}

std::optional<CampaignScenario>
findBuiltinScenario(std::string_view name)
{
    for (CampaignScenario &scenario : builtinScenarios()) {
        if (scenario.name == name)
            return std::move(scenario);
    }
    return std::nullopt;
}

namespace {

SystemConfig
configFor(const CampaignScenario &scenario, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.enableNi = true;
    cfg.enableCsb = scenario.useCsb;
    cfg.ubuf.combineBytes = 0; // conventional PIO baseline
    cfg.faults = scenario.baseFaults;
    cfg.faults.seed = seed;
    cfg.faults.schedule = sim::parseFaultSchedule(scenario.schedule);
    cfg.bus.errorResponses = cfg.faults.busFaultsEnabled();
    // Recovery posture: CSB escalates to degraded mode quickly, the
    // NI resets a dead link instead of dying, the ubuf is patient.
    cfg.csb.degradedFallback = true;
    cfg.csb.retry.maxAttempts = scenario.csbRetryMaxAttempts;
    cfg.ubuf.retry.maxAttempts = scenario.ubufRetryMaxAttempts;
    cfg.ni.linkReset = true;
    cfg.ni.maxSendAttempts = scenario.niMaxSendAttempts;
    cfg.normalize();
    return cfg;
}

std::uint64_t
legSeed(std::uint64_t seed, unsigned leg)
{
    return seed * 0x9e3779b97f4a7c15ULL + leg + 1;
}

std::uint64_t
totalInjected(const sim::FaultInjector *inj)
{
    if (!inj)
        return 0;
    std::uint64_t total = 0;
    for (unsigned i = 0;
         i < static_cast<unsigned>(sim::FaultSite::NumSites); ++i)
        total += inj->injectedAt(static_cast<sim::FaultSite>(i));
    return total;
}

} // namespace

CampaignResult
runCampaign(const CampaignScenario &scenario, std::uint64_t seed)
{
    scenario.validate();

    CampaignResult r;
    r.messagesSent = scenario.legs * scenario.messagesPerLeg;

    // Every leg's message sizes are drawn up front so the re-run of a
    // crashed leg issues byte-identical traffic.
    std::vector<std::vector<unsigned>> legSizes;
    legSizes.reserve(scenario.legs);
    for (unsigned leg = 0; leg < scenario.legs; ++leg) {
        legSizes.push_back(drawSizes(
            MessageSizeDistribution::scientific(legSeed(seed, leg)),
            scenario.messagesPerLeg));
    }

    MessageProgramSpec pspec;
    pspec.useCsb = scenario.useCsb;
    pspec.deviceLines = scenario.deviceLines;

    SystemConfig cfg = configFor(scenario, seed);
    pspec.lineBytes = cfg.lineBytes;
    pspec.fenceDoorbell = cfg.faults.busFaultsEnabled();

    HealthParams hp;
    hp.period = scenario.healthPeriod;
    hp.livenessWindow = scenario.livenessWindow;

    auto system = std::make_unique<System>(cfg);
    auto monitor = std::make_unique<HealthMonitor>(*system, hp);
    monitor->arm();

    auto retireMonitor = [&] {
        monitor->disarm();
        r.healthChecks += monitor->checksRun();
        r.healthViolations += monitor->violations().size();
        monitor.reset();
    };

    sim::CheckpointWriter checkpoint; // latest pre-leg image
    try {
        for (unsigned leg = 0; leg < scenario.legs; ++leg) {
            checkpoint.clear(); // reuses the previous leg's storage
            system->saveCheckpoint(checkpoint);
            isa::Program p = makeMessageProgram(pspec, legSizes[leg]);
            if (static_cast<int>(leg) == scenario.crashAfterLeg &&
                !r.crashed) {
                // Crash: run partway, then throw the whole System away
                // -- volatile state (including any partial deliveries
                // of this leg) is lost, exactly as on a real machine.
                system->core().loadProgram(&p, /*pid=*/1);
                system->simulator().runFor(scenario.crashAfterTicks);
                r.crashed = true;
                retireMonitor();
                system.reset();

                system = std::make_unique<System>(cfg);
                sim::CheckpointReader cr =
                    sim::CheckpointReader::fromImage(checkpoint.image());
                system->restoreCheckpoint(cr);
                monitor =
                    std::make_unique<HealthMonitor>(*system, hp);
                monitor->arm();
            }
            system->run(p, /*pid=*/1, scenario.legMaxTicks);
            ++r.legsCompleted;
        }
    } catch (const FatalError &e) {
        r.failure = e.what();
    }

    retireMonitor();

    // Scorecard harvest over the surviving timeline.
    io::NetworkInterface &ni = *system->ni();
    r.delivered = static_cast<unsigned>(ni.delivered().size());
    std::set<std::uint64_t> seqs;
    for (const io::DeliveredMessage &msg : ni.delivered())
        seqs.insert(msg.seq);
    unsigned unique = static_cast<unsigned>(seqs.size());
    r.duplicated = r.delivered - unique;
    r.lost = r.messagesSent > unique ? r.messagesSent - unique : 0;

    r.faultsInjected = totalInjected(system->faults());
    r.busNacks =
        static_cast<std::uint64_t>(system->bus().numNacks.value());
    r.retransmits = static_cast<std::uint64_t>(ni.retransmits.value());
    r.linkResets = static_cast<std::uint64_t>(ni.linkResets.value());
    r.linkDownTicks = ni.linkDownTicks.value();

    double episodes = ni.linkRecoveries.value();
    double outage = ni.linkDownTicks.value();
    r.busRetries = static_cast<std::uint64_t>(
        ni.busRetries.value() +
        system->uncachedBuffer().busRetries.value());
    for (unsigned cpu = 0; cpu < system->numCores(); ++cpu) {
        mem::ConditionalStoreBuffer *csb = system->csb(cpu);
        if (!csb)
            continue;
        r.busRetries +=
            static_cast<std::uint64_t>(csb->busRetries.value());
        r.degradedEntries +=
            static_cast<std::uint64_t>(csb->degradedEntries.value());
        r.repromotions +=
            static_cast<std::uint64_t>(csb->repromotions.value());
        r.degradedTicks += csb->degradedTicks.value();
        episodes += csb->repromotions.value();
        outage += csb->degradedTicks.value();
    }
    r.mttrTicks = episodes > 0 ? outage / episodes : 0;
    r.endTick = system->simulator().curTick();

    r.recovered = r.failure.empty() &&
                  r.legsCompleted == scenario.legs && r.lost == 0 &&
                  r.duplicated == 0 && r.healthViolations == 0;
    return r;
}

CampaignSummary
summarize(const std::vector<CampaignResult> &results)
{
    CampaignSummary s;
    s.runs = static_cast<unsigned>(results.size());
    double mttrSum = 0;
    unsigned mttrRuns = 0;
    double residencySum = 0;
    for (const CampaignResult &r : results) {
        if (r.recovered)
            ++s.recoveredRuns;
        s.totalLost += r.lost;
        s.totalDuplicated += r.duplicated;
        s.totalFaultsInjected += r.faultsInjected;
        s.totalLinkResets += r.linkResets;
        s.totalDegradedEntries += r.degradedEntries;
        s.totalHealthViolations += r.healthViolations;
        if (r.mttrTicks > 0) {
            mttrSum += r.mttrTicks;
            ++mttrRuns;
        }
        if (r.endTick > 0) {
            residencySum += (r.degradedTicks + r.linkDownTicks) /
                            static_cast<double>(r.endTick);
        }
    }
    s.recoveryRate =
        s.runs > 0 ? static_cast<double>(s.recoveredRuns) / s.runs : 0;
    s.meanMttrTicks = mttrRuns > 0 ? mttrSum / mttrRuns : 0;
    s.meanDegradedResidency =
        s.runs > 0 ? residencySum / s.runs : 0;
    return s;
}

void
renderCampaignTable(std::ostream &os, const CampaignScenario &scenario,
                    const std::vector<CampaignResult> &results,
                    const std::vector<std::uint64_t> &seeds)
{
    csb_assert(results.size() == seeds.size(),
               "result/seed count mismatch");
    os << "scenario " << scenario.name << " ("
       << (scenario.useCsb ? "csb" : "locked-pio") << ", "
       << scenario.legs << " legs x " << scenario.messagesPerLeg
       << " msgs";
    if (scenario.deviceLines > 0)
        os << " + " << scenario.deviceLines << " device lines";
    if (scenario.crashAfterLeg >= 0) {
        os << ", crash in leg " << scenario.crashAfterLeg << " @ +"
           << scenario.crashAfterTicks;
    }
    os << ")\n";
    if (!scenario.schedule.empty())
        os << "  schedule: " << scenario.schedule << '\n';
    os << "  " << std::setw(8) << "seed" << std::setw(10) << "recover"
       << std::setw(7) << "legs" << std::setw(7) << "sent"
       << std::setw(7) << "dlvr" << std::setw(6) << "lost"
       << std::setw(6) << "dup" << std::setw(8) << "faults"
       << std::setw(8) << "resets" << std::setw(8) << "degrad"
       << std::setw(10) << "mttr" << std::setw(12) << "endTick"
       << '\n';
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CampaignResult &r = results[i];
        os << "  " << std::setw(8) << seeds[i] << std::setw(10)
           << (r.recovered ? "yes" : "NO") << std::setw(7)
           << r.legsCompleted << std::setw(7) << r.messagesSent
           << std::setw(7) << r.delivered << std::setw(6) << r.lost
           << std::setw(6) << r.duplicated << std::setw(8)
           << r.faultsInjected << std::setw(8) << r.linkResets
           << std::setw(8) << r.degradedEntries << std::setw(10)
           << std::fixed << std::setprecision(1) << r.mttrTicks
           << std::setw(12) << r.endTick << '\n';
        os.unsetf(std::ios::fixed);
        if (!r.failure.empty())
            os << "    failure: " << r.failure << '\n';
    }
    CampaignSummary s = summarize(results);
    os << "  recovery " << s.recoveredRuns << '/' << s.runs
       << ", lost " << s.totalLost << ", dup " << s.totalDuplicated
       << ", faults " << s.totalFaultsInjected << ", mean MTTR "
       << std::fixed << std::setprecision(1) << s.meanMttrTicks
       << " ticks, degraded residency " << std::setprecision(4)
       << s.meanDegradedResidency << '\n';
    os.unsetf(std::ios::fixed);
}

} // namespace csb::core
