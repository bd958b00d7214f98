/**
 * @file
 * The `adapt` workload: a closed loop on one thread whose every
 * operation runs one adaptive-specialization guest to exit under an
 * AdaptiveEngine. The three guest shapes (checksum_gate,
 * dispatch_chain, phase_shift) call a hot kernel with a config word in
 * a0; the seed draws the config words and the phase-switch point.
 * Operations alternate between two ways a user runs the engine:
 * learning live from the first call, and pre-seeded from profiles an
 * earlier run exported (the fleet-wide PGO path), so the specialized
 * clone runs from the first call. Every adaptive run must print what
 * the plain run printed.
 *
 * The traced run adds the adapt legs: plain (no engine), learning
 * with installs disabled (clone cap 0), live, pre-seeded, and
 * specialize::appendGuardedClone timed on its own.
 */

#include <optional>
#include <stdexcept>

#include "adapt/engine.hpp"
#include "common.hpp"
#include "instrument/image.hpp"
#include "instrument/manager.hpp"
#include "profile.hpp"
#include "specialize/specializer.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vpsim/assembler.hpp"

namespace vpbench
{

namespace
{

/** Kernel calls per run: well past 100 ms of guest work per run. */
constexpr std::uint64_t kCalls = 1'800'000;

/**
 * The shared main loop: call kernel(config, i) `calls` times and print
 * the sum of its results. Iteration `switch_at` rewrites the config
 * word (the phase shift); past the trip count it never changes.
 */
std::string
mainLoop(std::uint64_t calls, std::uint64_t config,
         std::uint64_t switch_at, std::uint64_t config2)
{
    return vp::format(R"(
    .data
config: .word 0

    .text
    .proc main args=0
main:
    addi sp, sp, -16
    st   ra, 0(sp)
    li   s0, 0
    li   s1, %llu
    li   s4, %llu
    la   s2, config
    li   s3, 0
    li   t0, %llu
    st   t0, 0(s2)
loop:
    bge  s0, s1, done
    bne  s0, s4, no_switch
    li   t0, %llu
    st   t0, 0(s2)
no_switch:
    ld   a0, 0(s2)
    mov  a1, s0
    call kernel
    add  s3, s3, a0
    addi s0, s0, 1
    jmp  loop
done:
    mov  a0, s3
    syscall puti
    li   a0, 0
    ld   ra, 0(sp)
    addi sp, sp, 16
    syscall exit
    .endp
)",
                      static_cast<unsigned long long>(calls),
                      static_cast<unsigned long long>(switch_at),
                      static_cast<unsigned long long>(config),
                      static_cast<unsigned long long>(config2));
}

/** Re-derives the config checksum two ways and bails to a never-taken
 *  slow path if they disagree; under a bound a0 the chain folds. */
const char *const checksumKernel = R"(
    .proc kernel args=2
kernel:
    mul  t0, a0, a0
    xori t1, t0, 23130
    srli t2, t1, 3
    add  t0, t1, t2
    muli t1, t0, 17
    xor  t2, t1, a0
    slli t3, t2, 2
    add  t0, t3, t1
    srli t1, t0, 5
    xor  t2, t1, t3
    muli t3, t2, 3
    add  t4, t3, t0
    muli t5, a0, 3
    muli t6, a0, 5
    add  t5, t5, t6
    muli t6, a0, 8
    sub  t5, t5, t6
    add  t5, t5, t4
    bne  t4, t5, slow
    mul  t0, a1, a1
    xori t1, a1, 51
    add  t2, t0, t1
    andi t3, t2, 255
    srli t4, t2, 2
    add  t5, t3, t4
    xor  t6, t5, a1
    add  a0, t6, a0
    ret
slow:
    li   t0, 0
    muli t1, a0, 99
    add  t0, t0, t1
    xori t0, t0, 4095
    mov  a0, t0
    ret
    .endp
)";

/** A compare ladder on the config picks one of eight arms; under a
 *  bound a0 the ladder folds to one arm. */
const char *const dispatchKernel = R"(
    .proc kernel args=2
kernel:
    andi t9, a0, 7
    seqi t0, t9, 0
    bnez t0, arm0
    seqi t0, t9, 1
    bnez t0, arm1
    seqi t0, t9, 2
    bnez t0, arm2
    seqi t0, t9, 3
    bnez t0, arm3
    seqi t0, t9, 4
    bnez t0, arm4
    seqi t0, t9, 5
    bnez t0, arm5
    seqi t0, t9, 6
    bnez t0, arm6
arm7:
    muli t1, a1, 7
    xori t1, t1, 77
    add  a0, t1, a0
    ret
arm0:
    addi t1, a1, 11
    slli t1, t1, 1
    add  a0, t1, a0
    ret
arm1:
    muli t1, a1, 3
    srli t1, t1, 1
    add  a0, t1, a0
    ret
arm2:
    xori t1, a1, 29
    muli t1, t1, 5
    add  a0, t1, a0
    ret
arm3:
    andi t1, a1, 63
    muli t1, t1, 9
    add  a0, t1, a0
    ret
arm4:
    srli t1, a1, 2
    xori t1, t1, 13
    add  a0, t1, a0
    ret
arm5:
    muli t1, a1, 11
    andi t1, t1, 127
    add  a0, t1, a0
    ret
arm6:
    slli t1, a1, 3
    sub  t1, t1, a1
    add  a0, t1, a0
    ret
    .endp
)";

/** One seeded guest with its plain reference run and the profiles a
 *  learning run exported (the pre-seed source). */
struct Variant
{
    std::string name;
    vpsim::Program program;
    std::string output;
    std::int64_t exitCode = 0;
    core::ProfileSnapshot seedProfiles;
};

enum class Mode
{
    Plain,     ///< no manager, no engine
    NoInstall, ///< engine attached, clone cap 0: learns only
    Live,      ///< engine learning live (the default path)
    Seeded,    ///< engine pre-seeded from exported profiles
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Plain: return "plain";
      case Mode::NoInstall: return "learn_no_install";
      case Mode::Live: return "live";
      case Mode::Seeded: return "seeded";
    }
    return "?";
}

struct AdaptRun
{
    bool ok = false;
    std::string error;
    double seconds = 0.0; ///< program copy to guest exit
    std::uint64_t insts = 0;
    std::uint64_t guardHits = 0, guardMisses = 0;
    std::uint64_t installs = 0;
    std::vector<specialize::Binding> bindings; ///< kernel's, if installed
};

AdaptRun
runVariant(const Variant &v, Mode mode,
           core::ProfileSnapshot *exported = nullptr)
{
    AdaptRun res;
    const auto t0 = Clock::now();
    vpsim::Program prog = v.program; // the engine grows its own copy
    instr::Image image(prog);
    instr::InstrumentManager manager(image);
    vpsim::Cpu cpu(prog, cpuConfig());
    std::optional<adapt::AdaptiveEngine> engine;
    if (mode != Mode::Plain) {
        adapt::AdaptConfig cfg;
        // AdaptConfig rejects an invariance threshold above 1, so a
        // zero clone cap is what keeps this leg learning only.
        if (mode == Mode::NoInstall)
            cfg.maxClones = 0;
        engine.emplace(prog, manager, cpu, cfg);
        if (mode == Mode::Seeded) {
            LayerSpan span("adapt.AdaptiveEngine::preseedFrom");
            engine->preseedFrom(v.seedProfiles);
        }
        manager.attach(cpu);
    }
    vpsim::RunResult run;
    {
        LayerSpan span("vpsim.Cpu::run", "leg", modeName(mode));
        run = cpu.run();
    }
    res.seconds = secondsBetween(t0, Clock::now());
    res.insts = run.dynamicInsts;
    if (engine) {
        res.guardHits = engine->guardHits();
        res.guardMisses = engine->guardMisses();
        res.installs = engine->installs();
        if (const auto *site = engine->siteFor("kernel"))
            res.bindings = site->bindings;
        if (exported) {
            LayerSpan span("adapt.AdaptiveEngine::exportProfiles");
            engine->exportProfiles(*exported);
        }
    }
    if (!run.exited() || run.exitCode != v.exitCode ||
        cpu.output() != v.output) {
        res.error = v.name + " (" + modeName(mode) +
                    "): output differs from the plain run";
        return res;
    }
    res.ok = true;
    return res;
}

/** Assemble the three seeded shapes, run each plain for its reference
 *  output, and learn once to export its pre-seed profiles. */
std::vector<Variant>
loadVariants(std::uint64_t seed)
{
    vp::Rng rng(mixSeed(seed, 3));
    const std::uint64_t never = kCalls + 1;
    const std::uint64_t gate = 1 + rng.below(0xfffe);
    const std::uint64_t ladder = rng.below(0x10000);
    const std::uint64_t phase1 = 1 + rng.below(0xfffe);
    std::uint64_t phase2 = 1 + rng.below(0xfffe);
    if (phase2 == phase1)
        phase2 = phase1 ^ 0x5a5a;
    const std::uint64_t switch_at = kCalls * (30 + rng.below(41)) / 100;

    std::vector<Variant> out(3);
    out[0].name = "checksum_gate";
    out[0].program =
        vpsim::assemble(mainLoop(kCalls, gate, never, gate) + checksumKernel);
    out[1].name = "dispatch_chain";
    out[1].program = vpsim::assemble(mainLoop(kCalls, ladder, never, ladder) +
                                     dispatchKernel);
    out[2].name = "phase_shift";
    out[2].program = vpsim::assemble(
        mainLoop(kCalls, phase1, switch_at, phase2) + checksumKernel);
    for (Variant &v : out) {
        // One 16 MB guest memory live at a time: with two, heap
        // fragmentation keeps a third resident in some runs and not in
        // others, and peak RSS is no longer steady.
        {
            vpsim::Cpu cpu(v.program, cpuConfig());
            const vpsim::RunResult r = cpu.run();
            if (!r.exited())
                throw std::runtime_error(v.name +
                                         ": plain run did not exit");
            v.output = cpu.output();
            v.exitCode = r.exitCode;
        }
        const AdaptRun learn = runVariant(v, Mode::Live, &v.seedProfiles);
        if (!learn.ok || learn.installs == 0)
            throw std::runtime_error(v.name + ": set-up learning run " +
                                     (learn.ok ? "never installed"
                                               : learn.error));
    }
    return out;
}

} // namespace

void
runAdapt(const Options &opt, Report &report)
{
    const std::vector<Variant> vars =
        timedSetup(report, 3, [&] { return loadVariants(opt.seed); });

    // Main stream: the engine learning live; alternate stream: the
    // engine pre-seeded from exported profiles.
    vp::Rng rng(mixSeed(opt.seed, 4));
    auto runs = [&](double seconds) {
        return runCycles(vars.size(), rng, seconds,
                         [&](std::size_t i, bool seeded) {
            const AdaptRun r =
                runVariant(vars[i], seeded ? Mode::Seeded : Mode::Live);
            report.check("adapt_output", r.ok, r.error);
            report.check("adapt_installed", r.installs > 0,
                         vars[i].name + ": engine never specialized");
            report.op(r.ok && r.installs > 0);
            return OpResult{r.seconds, double(kCalls)};
        });
    };
    runs(warmupSeconds(opt));

    if (opt.trace) {
        const auto plain = runs(0.2 * opt.seconds);
        vp::trace::TraceCollector::global().setEnabled(true);
        const auto traced = runs(0.2 * opt.seconds);
        vp::trace::TraceCollector::global().setEnabled(false);
        reportTraceOverhead(report, mainRate(plain), mainRate(traced));
        return;
    }

    const std::vector<Cycle> cycles = runs(opt.seconds);
    // A cycle holds one run per shape and stream: p50 is the middle
    // shape's latency, the p80 tail the slowest shape's.
    reportCycles(report, cycles, 0.8);
    std::vector<double> live, seeded;
    for (const Cycle &c : cycles) {
        live.push_back(c.main.rate());
        seeded.push_back(c.alt.rate());
    }
    report.line("adapt_calls_per_s", median(live), "1/s");
    report.line("seeded_calls_per_s", median(seeded), "1/s");
}

void
adaptLayers(const Options &opt, Report &report, double budget)
{
    const std::vector<Variant> vars = loadVariants(opt.seed);
    constexpr Mode kModes[] = {Mode::Plain, Mode::NoInstall, Mode::Live,
                               Mode::Seeded};
    std::vector<double> per_rep[4];
    std::uint64_t hits = 0, misses = 0, live_insts = 0, live_calls = 0;
    std::vector<specialize::Binding> bindings;
    const auto start = Clock::now();
    for (unsigned rep = 0;
         rep < 2 || (rep < 8 && remaining(start, budget) > 0); ++rep) {
        double sum[4] = {};
        for (const Variant &v : vars) {
            for (unsigned m = 0; m < 4; ++m) {
                const AdaptRun r = runVariant(v, kModes[m]);
                report.check("adapt_output", r.ok, r.error);
                sum[m] += r.seconds;
                if (kModes[m] == Mode::Live) {
                    hits += r.guardHits;
                    misses += r.guardMisses;
                    live_insts += r.insts;
                    live_calls += kCalls;
                    if (v.name == "checksum_gate")
                        bindings = r.bindings;
                }
            }
        }
        for (unsigned m = 0; m < 4; ++m)
            per_rep[m].push_back(sum[m]);
    }
    const double calls = double(kCalls * vars.size());
    auto ns_per_call = [&](Mode m) {
        return 1e9 * median(per_rep[static_cast<unsigned>(m)]) / calls;
    };
    report.layer("adapt.plain_ns_per_call", ns_per_call(Mode::Plain), "ns");
    report.layer("adapt.learn_ns_per_call", ns_per_call(Mode::NoInstall),
                 "ns");
    report.layer("adapt.steady_ns_per_call", ns_per_call(Mode::Seeded),
                 "ns");
    report.layer("adapt.guard_hit_frac",
                 ratio(double(hits), double(hits + misses)), "fraction");
    report.layer("adapt.insts_per_call",
                 ratio(double(live_insts), double(live_calls)), "count");
    report.layer("adapt.speedup_wall",
                 ratio(ns_per_call(Mode::Plain), ns_per_call(Mode::Live)),
                 "ratio");

    // appendGuardedClone on its own, with the bindings the live engine
    // installed for checksum_gate, on a fresh program copy each time.
    report.check("adapt_bindings", !bindings.empty(),
                 "checksum_gate installed no bindings");
    std::vector<double> clone_us;
    specialize::CloneOptions copts;
    copts.retargetCalls = false;
    copts.assumeAbi = false;
    for (unsigned i = 0; i < 31 && !bindings.empty(); ++i) {
        vpsim::Program prog = vars[0].program;
        copts.labelSuffix = "_bench" + std::to_string(i);
        const auto t0 = Clock::now();
        {
            LayerSpan span("specialize.appendGuardedClone");
            specialize::appendGuardedClone(prog, "kernel", bindings, copts);
        }
        clone_us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
    }
    report.layer("specialize.clone_us", median(clone_us), "us");
}

} // namespace vpbench
