/**
 * @file
 * The `profile` workload: a closed loop on one thread whose every
 * operation is one profiling job on vpprof's default path (profile all
 * register writes, summarize into a ProfileSnapshot, save as v2).
 * Jobs alternate between full and sampled mode; each cycle visits
 * every program once per mode in a seeded order, so every run sees
 * the same program mix and the seed only moves order and the
 * synthetic programs.
 *
 * The traced run adds the profiling layer legs: each leg adds one
 * layer to the previous one through public configuration only —
 * native, manager attached, a no-op block tool, TNV only, +LVP,
 * +distinct (= full) — plus a separate sampled leg; summarize and
 * save are timed on their own. Two checks guard the breakdown: no leg
 * may run faster than the one it adds a layer to (beyond noise), and
 * the legs, scaled by the jobs' counts, must reproduce the directly
 * timed full job within the tolerance.
 */

#include "profile.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/generator.hpp"
#include "common.hpp"
#include "core/instruction_profiler.hpp"
#include "instrument/image.hpp"
#include "instrument/manager.hpp"
#include "support/rng.hpp"
#include "vpsim/assembler.hpp"

namespace vpbench
{

vpsim::CpuConfig
cpuConfig()
{
    return vpsim::CpuConfig{16u << 20, 500'000'000};
}

void
prepare(vpsim::Cpu &cpu, const GuestProgram &g)
{
    cpu.reset();
    if (g.workload)
        g.workload->inject(cpu, g.dataset);
}

namespace
{

void
runNative(GuestProgram &g)
{
    vpsim::Cpu cpu(g.program, cpuConfig());
    prepare(cpu, g);
    const vpsim::RunResult r = cpu.run();
    if (!r.exited())
        throw std::runtime_error(g.name + ": native run did not exit");
    g.output = cpu.output();
    g.exitCode = r.exitCode;
    g.insts = r.dynamicInsts;
}

/** Shape of the seeded synthetic programs: large enough that a job
 *  does real work, small next to the suite programs. */
vp::check::GenConfig
syntheticShape()
{
    vp::check::GenConfig cfg;
    cfg.calls = 400;
    cfg.maxLoopTrip = 24;
    cfg.maxProcs = 4;
    return cfg;
}

} // namespace

std::vector<GuestProgram>
loadPrograms(std::uint64_t seed, unsigned synthetic)
{
    std::vector<GuestProgram> out;
    for (const workloads::Workload *w : workloads::allWorkloads()) {
        const vpsim::Program prog = vpsim::assemble(w->source());
        for (const std::string &ds : w->datasets()) {
            GuestProgram g;
            g.name = w->name() + ":" + ds;
            g.workload = w;
            g.dataset = ds;
            g.program = prog;
            out.push_back(std::move(g));
        }
    }
    for (unsigned i = 0; i < synthetic; ++i) {
        const std::uint64_t s = mixSeed(seed, 100 + i);
        GuestProgram g;
        g.name = "synth:" + std::to_string(s);
        g.program = vp::check::generate(s, syntheticShape()).program;
        out.push_back(std::move(g));
    }
    for (GuestProgram &g : out)
        runNative(g);
    return out;
}

JobResult
profileJob(const GuestProgram &g, core::ProfileMode mode,
           core::ProfileSnapshot *keep)
{
    JobResult res;
    const auto t0 = Clock::now();
    std::ostringstream saved;
    core::ProfileSnapshot snap;
    vpsim::RunResult run;
    std::string output;
    Clock::time_point t1;
    {
        std::optional<LayerSpan> setup_span;
        setup_span.emplace("instrument.InstrumentManager::attach");
        instr::Image image(g.program);
        instr::InstrumentManager manager(image);
        core::InstProfilerConfig cfg;
        cfg.mode = mode;
        core::InstructionProfiler prof(image, cfg);
        prof.profileAllWrites(manager);
        vpsim::Cpu cpu(g.program, cpuConfig());
        manager.attach(cpu);
        prepare(cpu, g);
        setup_span.reset();

        t1 = Clock::now();
        {
            LayerSpan span("vpsim.Cpu::run", "program", g.name);
            run = cpu.run();
        }
        {
            LayerSpan span("core.ProfileSnapshot::fromInstructionProfiler");
            snap = core::ProfileSnapshot::fromInstructionProfiler(prof);
        }
        {
            LayerSpan span("core.ProfileSnapshot::save");
            snap.save(saved);
        }
        output = cpu.output();
        res.events = prof.totalExecutions();
    }
    res.seconds = secondsBetween(t0, Clock::now());
    res.setupS = secondsBetween(t0, t1);
    res.insts = run.dynamicInsts;
    res.entities = snap.size();
    const std::string bytes = saved.str();

    // Untimed verification.
    if (!run.exited() || run.exitCode != g.exitCode ||
        output != g.output) {
        res.error = g.name + ": profiled output differs from native";
        return res;
    }
    core::ProfileSnapshot loaded;
    std::string err;
    {
        LayerSpan span("core.ProfileSnapshot::tryLoad");
        std::istringstream is(bytes);
        if (!core::ProfileSnapshot::tryLoad(is, loaded, err)) {
            res.error = g.name + ": tryLoad failed: " + err;
            return res;
        }
    }
    std::ostringstream again;
    loaded.save(again);
    if (again.str() != bytes) {
        res.error = g.name + ": save -> tryLoad -> save not identical";
        return res;
    }
    if (keep)
        *keep = std::move(snap);
    res.ok = true;
    return res;
}

namespace
{

/** Number of seeded synthetic programs in the job mix. */
constexpr unsigned kSynthetic = 4;

} // namespace

void
runProfile(const Options &opt, Report &report)
{
    const std::vector<GuestProgram> progs = timedSetup(
        report, 3, [&] { return loadPrograms(opt.seed, kSynthetic); });

    // Main stream: full-mode jobs; alternate stream: sampled-mode jobs.
    vp::Rng rng(mixSeed(opt.seed, 1));
    auto jobs = [&](double seconds) {
        return runCycles(progs.size(), rng, seconds,
                         [&](std::size_t i, bool sampled) {
            const JobResult r = profileJob(
                progs[i], sampled ? core::ProfileMode::Sampled
                                  : core::ProfileMode::Full);
            report.check("profile_job", r.ok, r.error);
            report.op(r.ok);
            return OpResult{r.seconds, double(r.insts)};
        });
    };
    jobs(warmupSeconds(opt));

    if (opt.trace) {
        const auto plain = jobs(0.2 * opt.seconds);
        vp::trace::TraceCollector::global().setEnabled(true);
        const auto traced = jobs(0.2 * opt.seconds);
        vp::trace::TraceCollector::global().setEnabled(false);
        reportTraceOverhead(report, mainRate(plain), mainRate(traced));
        return;
    }

    const std::vector<Cycle> cycles = jobs(opt.seconds);
    // p90: a cycle holds one full and one sampled job per program.
    reportCycles(report, cycles, 0.9);
    std::vector<double> full, sampled;
    for (const Cycle &c : cycles) {
        full.push_back(c.main.rate() / 1e6);
        sampled.push_back(c.alt.rate() / 1e6);
    }
    report.line("full_minsts_per_s", median(full), "M/s");
    report.line("sampled_minsts_per_s", median(sampled), "M/s");
}

// --- per-layer legs ----------------------------------------------------

namespace
{

/** Largest profile.layer_sum_error a traced run accepts (design.json
 *  states the same value; the smoke test holds them equal). */
constexpr double kLayerSumTolerance = 0.2;
/** Share of a leg's time by which the next leg may run faster before
 *  the layer between them counts as negative (design.json again). */
constexpr double kLegNoise = 0.1;

/** A block tool that only counts what it is handed: the delivery
 *  layer without any profiling work. */
class NoopTool final : public instr::Tool
{
  public:
    bool wantsEventBlocks() const override { return true; }
    void
    onEventBlock(const vpsim::ExecEvent *, std::size_t n,
                 const std::uint64_t *) override
    {
        events += n;
    }
    std::uint64_t events = 0;
};

enum class Leg
{
    Native,
    Attached,
    Noop,
    Tnv,
    Lvp,
    Full,
    Sampled,
};
constexpr Leg kLegs[] = {Leg::Native, Leg::Attached, Leg::Noop, Leg::Tnv,
                         Leg::Lvp,    Leg::Full,     Leg::Sampled};

const char *
legName(Leg leg)
{
    switch (leg) {
      case Leg::Native: return "native";
      case Leg::Attached: return "attached";
      case Leg::Noop: return "noop_tool";
      case Leg::Tnv: return "tnv";
      case Leg::Lvp: return "lvp";
      case Leg::Full: return "full";
      case Leg::Sampled: return "sampled";
    }
    return "?";
}

struct LegRun
{
    bool ok = false;
    double runS = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t events = 0;
    std::uint64_t profiled = 0;
    double summarizeS = 0.0; ///< Full leg only
    double saveS = 0.0;      ///< Full leg only
    std::size_t entities = 0;
    std::size_t bytes = 0;
};

/** One leg on one program; only Cpu::run (and, on the full leg,
 *  summarize and save) is timed. */
LegRun
runLeg(const GuestProgram &g, Leg leg)
{
    LegRun res;
    instr::Image image(g.program);
    instr::InstrumentManager manager(image);
    NoopTool noop;
    std::optional<core::InstructionProfiler> prof;
    if (leg == Leg::Noop) {
        manager.instrumentInsts(image.regWritingInsts(), &noop);
    } else if (leg != Leg::Native && leg != Leg::Attached) {
        core::InstProfilerConfig cfg;
        cfg.profile.trackLastValue = leg != Leg::Tnv;
        cfg.profile.trackDistinct = leg == Leg::Full || leg == Leg::Sampled;
        cfg.mode = leg == Leg::Sampled ? core::ProfileMode::Sampled
                                       : core::ProfileMode::Full;
        prof.emplace(image, cfg);
        prof->profileAllWrites(manager);
    }
    vpsim::Cpu cpu(g.program, cpuConfig());
    if (leg != Leg::Native)
        manager.attach(cpu);
    prepare(cpu, g);

    const auto t0 = Clock::now();
    vpsim::RunResult run;
    {
        LayerSpan span("vpsim.Cpu::run", "leg", legName(leg));
        run = cpu.run();
    }
    res.runS = secondsBetween(t0, Clock::now());
    res.insts = run.dynamicInsts;
    res.ok = run.exited() && cpu.output() == g.output;
    if (leg == Leg::Noop)
        res.events = noop.events;
    if (prof) {
        res.events = prof->totalExecutions();
        res.profiled = prof->profiledExecutions();
    }
    if (leg == Leg::Full) {
        const auto t1 = Clock::now();
        core::ProfileSnapshot snap;
        {
            LayerSpan span("core.ProfileSnapshot::fromInstructionProfiler");
            snap = core::ProfileSnapshot::fromInstructionProfiler(*prof);
        }
        const auto t2 = Clock::now();
        std::ostringstream os;
        {
            LayerSpan span("core.ProfileSnapshot::save");
            snap.save(os);
        }
        const auto t3 = Clock::now();
        res.summarizeS = secondsBetween(t1, t2);
        res.saveS = secondsBetween(t2, t3);
        res.entities = snap.size();
        res.bytes = os.str().size();
    }
    return res;
}

} // namespace

void
profileLayers(const Options &opt, Report &report, double budget)
{
    // One data set per suite program (seeded), so three repetitions
    // of every leg fit the budget.
    std::vector<GuestProgram> all = loadPrograms(opt.seed, 0);
    std::vector<GuestProgram> progs;
    vp::Rng rng(mixSeed(opt.seed, 2));
    for (std::size_t i = 0; i + 1 < all.size(); i += 2)
        progs.push_back(std::move(all[i + rng.below(2)]));

    std::map<Leg, std::vector<double>> legS;
    std::vector<double> jobS, jobSetupS, summS, saveS;
    std::map<Leg, LegRun> totals; // counts from the first repetition
    JobResult jobTotals;
    const auto start = Clock::now();
    for (unsigned rep = 0;
         rep < 3 || (rep < 9 && remaining(start, budget) > 0); ++rep) {
        std::map<Leg, double> sum;
        double job = 0, job_setup = 0, summ = 0, save = 0;
        for (const GuestProgram &g : progs) {
            for (Leg leg : kLegs) {
                const LegRun r = runLeg(g, leg);
                report.check("layer_leg_output", r.ok,
                             g.name + " leg " + legName(leg));
                sum[leg] += r.runS;
                summ += r.summarizeS;
                save += r.saveS;
                if (rep == 0) {
                    LegRun &t = totals[leg];
                    t.insts += r.insts;
                    t.events += r.events;
                    t.profiled += r.profiled;
                    t.entities += r.entities;
                    t.bytes += r.bytes;
                }
            }
            const JobResult j = profileJob(g, core::ProfileMode::Full);
            report.check("profile_job", j.ok, j.error);
            job += j.seconds;
            job_setup += j.setupS;
            if (rep == 0) {
                jobTotals.insts += j.insts;
                jobTotals.events += j.events;
                jobTotals.entities += j.entities;
            }
        }
        for (Leg leg : kLegs)
            legS[leg].push_back(sum[leg]);
        jobS.push_back(job);
        jobSetupS.push_back(job_setup);
        summS.push_back(summ);
        saveS.push_back(save);
    }

    auto med = [&](Leg leg) { return median(legS[leg]); };
    const double insts = double(totals[Leg::Native].insts);
    const double events = double(totals[Leg::Full].events);
    const double entities = double(totals[Leg::Full].entities);
    const double ns = 1e9;
    const double native = ns * med(Leg::Native) / insts;
    const double attach = ns * (med(Leg::Attached) - med(Leg::Native)) / insts;
    const double deliver = ns * (med(Leg::Noop) - med(Leg::Attached)) / events;
    const double tnv = ns * (med(Leg::Tnv) - med(Leg::Noop)) / events;
    const double lvp = ns * (med(Leg::Lvp) - med(Leg::Tnv)) / events;
    const double distinct = ns * (med(Leg::Full) - med(Leg::Lvp)) / events;
    const double sampler =
        ns * (med(Leg::Sampled) - med(Leg::Noop)) / events;
    const double summarize = ns * median(summS) / entities;
    const double save = ns * median(saveS) / entities;

    report.check("layer_leg_counts",
                 insts > 0 && events > 0 && entities > 0 &&
                     totals[Leg::Noop].events == totals[Leg::Full].events,
                 "legs must see the same register-write events");
    report.layer("vpsim.native_ns_per_inst", native, "ns");
    report.layer("instrument.attach_ns_per_inst", attach, "ns");
    report.layer("instrument.deliver_ns_per_event", deliver, "ns");
    report.layer("core.tnv_ns_per_event", tnv, "ns");
    report.layer("core.lvp_ns_per_event", lvp, "ns");
    report.layer("core.distinct_ns_per_event", distinct, "ns");
    report.layer("core.sampler_ns_per_event", sampler, "ns");
    report.layer("core.sampled_fraction",
                 ratio(double(totals[Leg::Sampled].profiled),
                       double(totals[Leg::Sampled].events)),
                 "fraction");
    report.layer("core.summarize_ns_per_entity", summarize, "ns");
    report.layer("core.save_ns_per_entity", save, "ns");
    report.layer("core.bytes_per_entity",
                 ratio(double(totals[Leg::Full].bytes), entities), "B");
    report.layer("profile.events_per_inst", ratio(events, insts), "count");

    // Each layer's cost is the gap between two legs; a leg faster than
    // the one it builds on by more than noise means a wrong leg order
    // or a layer that the configuration did not switch on.
    const std::pair<Leg, Leg> steps[] = {
        {Leg::Native, Leg::Attached}, {Leg::Attached, Leg::Noop},
        {Leg::Noop, Leg::Tnv},        {Leg::Tnv, Leg::Lvp},
        {Leg::Lvp, Leg::Full},        {Leg::Noop, Leg::Sampled}};
    double min_step = 0.0;
    for (const auto &[base, next] : steps) {
        const double step = ratio(med(next) - med(base), med(base));
        min_step = std::min(min_step, step);
        report.check("layer_leg_order", step >= -kLegNoise,
                     std::string("leg ") + legName(next) + " runs " +
                         std::to_string(-step) + " faster than leg " +
                         legName(base) + " (noise allowance " +
                         std::to_string(kLegNoise) + ")");
    }
    report.line("profile.min_leg_step", min_step, "fraction");
    report.line("profile.leg_noise", kLegNoise, "fraction");

    // The legs telescope: the per-instruction and per-event costs,
    // scaled by the full jobs' own counts, add up to the full leg's
    // Cpu::run. With the jobs' set-up, summarize and save this must
    // reproduce the jobs' directly timed wall clock (job start to
    // snapshot saved).
    const double predicted =
        median(jobSetupS) +
        (double(jobTotals.insts) * (native + attach) +
         double(jobTotals.events) * (deliver + tnv + lvp + distinct) +
         double(jobTotals.entities) * (summarize + save)) /
            ns;
    const double full = median(jobS);
    const double error = ratio(std::abs(predicted - full), full);
    report.layer("profile.layer_sum_error", error, "fraction");
    report.check("layer_sum", error <= kLayerSumTolerance,
                 "profile.layer_sum_error " + std::to_string(error) +
                     " exceeds tolerance " +
                     std::to_string(kLayerSumTolerance));
    report.line("profile.layer_sum_tolerance", kLayerSumTolerance,
                "fraction");
    report.line("profile.legs_reps", double(legS[Leg::Native].size()),
                "count");
}

} // namespace vpbench
