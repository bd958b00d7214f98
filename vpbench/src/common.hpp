/**
 * @file
 * Shared pieces of the wall-clock benchmark program: run options, the
 * report every workload fills in (contract metrics, human-readable
 * lines, correctness checks, operation counts), layer spans over the
 * vp::trace collector, and small statistics helpers.
 */

#ifndef VPBENCH_COMMON_HPP
#define VPBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/trace.hpp"

namespace vpbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** fleet: HTTP request rate per second, about half the rate at which
 *  query p99 starts to climb on the reference box (see design.json). */
constexpr double kDefaultHttpRate = 300.0;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for sockets, snapshots and span files. */
    std::string outDir = ".bench_out";
    /** fleet: HTTP request rate per second (--rate, for the sweep
     *  that finds where query p99 starts to climb). */
    double httpRate = kDefaultHttpRate;
};

/** Nearest-rank quantile, q in [0,1]; 0 for an empty sample. */
double quantile(std::vector<double> samples, double q);

/** Median of a sample (nearest rank). */
inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/** `num / den`, or 0 when `den` is 0. */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Mix a seed with a stream tag into an independent 64-bit seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t tag);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * What one run reports. Contract metrics end up in the final JSON
 * line; `line` entries are printed above it for people (the
 * workload-specific metric names live there); every correctness check is
 * counted by name so the smoke test can see that it ran.
 */
class Report
{
  public:
    explicit Report(bool traced) : traced(traced) {}

    /**
     * An end-to-end metric: part of the JSON line of an untraced run,
     * a human-readable line of a traced one.
     */
    void endToEnd(const std::string &name, double value,
                  const std::string &unit);

    /** A per-layer metric: part of the JSON line of a traced run only. */
    void layer(const std::string &name, double value,
               const std::string &unit);

    /** A human-readable metric line (not part of the JSON line). */
    void line(const std::string &name, double value,
              const std::string &unit, const std::string &note = "");

    /**
     * Record one correctness check. A failing check makes the run
     * incorrect and is described on stderr.
     * @return `ok`, so callers can count failed operations.
     */
    bool check(const std::string &name, bool ok,
               const std::string &what = "");

    /** Count one attempted operation, failed or not. */
    void
    op(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /** Count `n` attempted operations of which `failed_n` failed. */
    void
    ops(std::uint64_t n, std::uint64_t failed_n)
    {
        attempted += n;
        failed += failed_n;
    }

    std::uint64_t attemptedOps() const { return attempted; }
    std::uint64_t failedOps() const { return failed; }

    /** Print the human-readable lines, the check tally, and the
     *  contract JSON as the very last line. */
    void print(std::ostream &os) const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    void metric(const std::string &name, double value,
                const std::string &unit);

    bool traced;
    std::vector<Metric> metrics;
    std::vector<std::string> lines;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        checks; ///< name -> (passed, failed)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool allPassed = true;
};

/** True while the traced run records spans. */
inline bool
tracing()
{
    return vp::trace::TraceCollector::global().enabled();
}

/**
 * A span around one call into a layer, recorded into the vp::trace
 * collector only while tracing is on (an untraced run pays one
 * relaxed load). Names are "<layer>.<function>".
 */
class LayerSpan
{
  public:
    explicit LayerSpan(const char *name)
    {
        if (tracing())
            span.emplace(name);
    }

    LayerSpan(const char *name, const char *key, const std::string &value)
        : LayerSpan(name)
    {
        if (span)
            span->arg(key, value);
    }

  private:
    std::optional<vp::trace::ScopedSpan> span;
};

/**
 * Length of the untimed warm-up each workload runs before its timed
 * loop: the same operations, checked but not timed. It brings the
 * host's cores out of idle and fills caches; without it the first run
 * after a pause read 25-35% slow on the reference box.
 */
inline double
warmupSeconds(const Options &opt)
{
    return opt.seconds < 20.0 ? 0.15 * opt.seconds : 3.0;
}

/**
 * Pin the calling thread to allowed CPU number `slot` (modulo their
 * count); a negative slot lets it run on every allowed CPU again.
 *
 * On a shared host each CPU's speed depends on what its neighbours
 * run: at one moment the same single-threaded loop ran at 9.5 M calls
 * per second on one CPU and 14 M on another, and a busy thread stays
 * on one CPU for a whole run. The single-threaded loops therefore move
 * to the next CPU at every operation, so each run samples every CPU
 * alike. (Pinning the fleet's daemon thread the same way made its
 * figures less steady, so the fleet's threads float.)
 */
void pinToCpu(long slot);

/** One stream's operations within a cycle of a closed loop. */
struct Stream
{
    double seconds = 0.0;   ///< summed operation time
    double work = 0.0;      ///< work units done (instructions, calls)
    std::vector<double> us; ///< per-operation latency

    double rate() const { return ratio(work, seconds); }
};

/** One pass over every input, once per stream. */
struct Cycle
{
    Stream main, alt;
};

/** What one closed-loop operation reports. */
struct OpResult
{
    double seconds = 0.0;
    double work = 0.0;
};

/**
 * The closed loop of the single-threaded workloads: cycles over a
 * seeded permutation of `items` inputs, each visited by the main then
 * the alternate stream (`op(item, alt)`), until `seconds` pass. Every
 * run sees the same input mix; the seed moves only the order. A cycle
 * cut short by the deadline is dropped unless no cycle completed.
 */
template <typename Op>
std::vector<Cycle>
runCycles(std::size_t items, vp::Rng &rng, double seconds, Op &&op)
{
    std::vector<std::size_t> order(items);
    for (std::size_t i = 0; i < items; ++i)
        order[i] = i;
    std::vector<Cycle> cycles;
    long slot = 0; // one per input visit: both streams share its CPU
    const auto start = Clock::now();
    while (secondsBetween(start, Clock::now()) < seconds) {
        for (std::size_t i = items; i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        Cycle c;
        bool complete = true;
        for (std::size_t k = 0; k < 2 * items && complete; ++k) {
            const bool alt = k % 2 == 1;
            pinToCpu(alt ? slot++ : slot);
            const OpResult r = op(order[k / 2], alt);
            Stream &s = alt ? c.alt : c.main;
            s.seconds += r.seconds;
            s.work += r.work;
            s.us.push_back(r.seconds * 1e6);
            complete = secondsBetween(start, Clock::now()) < seconds ||
                       k + 1 == 2 * items;
        }
        if (complete || cycles.empty())
            cycles.push_back(std::move(c));
    }
    pinToCpu(-1);
    return cycles;
}

/**
 * Report the cycles' end-to-end metrics, each the median over cycles
 * of the cycle's own figure, so a burst of host noise in one cycle
 * does not move the result. `tail_q` is the tail quantile.
 */
void reportCycles(Report &report, const std::vector<Cycle> &cycles,
                  double tail_q);

/** Main-stream rate over all cycles (for the tracing overhead). */
double mainRate(const std::vector<Cycle> &cycles);

/** Seconds of a --seconds budget left after `start`. */
inline double
remaining(Clock::time_point start, double budget)
{
    return budget - secondsBetween(start, Clock::now());
}

/**
 * Time `reps` set-ups and report their median as `setup_s`. The last
 * set-up's result is the one the run keeps; `setup` must rebuild
 * everything it returns, so each repetition pays the full cost.
 */
template <typename Fn>
auto
timedSetup(Report &report, unsigned reps, Fn &&setup)
{
    std::vector<double> times;
    auto t0 = Clock::now();
    auto result = setup();
    times.push_back(secondsBetween(t0, Clock::now()));
    for (unsigned r = 1; r < reps; ++r) {
        t0 = Clock::now();
        result = setup();
        times.push_back(secondsBetween(t0, Clock::now()));
    }
    report.endToEnd("setup_s", median(times), "s");
    return result;
}

// Workload entry points (one translation unit each). `main` runs the
// timed loop; `layers` runs the per-layer legs of the traced run.

void runProfile(const Options &opt, Report &report);
void runFleet(const Options &opt, Report &report);
void runAdapt(const Options &opt, Report &report);

void profileLayers(const Options &opt, Report &report, double budget);
void fleetLayers(const Options &opt, Report &report, double budget,
                 bool have_server_phase);
void adaptLayers(const Options &opt, Report &report, double budget);

/**
 * Report the tracing overhead of a workload's main metric: the same
 * loop run untraced, then traced, as the relative drop of the traced
 * figure (higher-is-better metric).
 */
void reportTraceOverhead(Report &report, double untraced, double traced);

} // namespace vpbench

#endif // VPBENCH_COMMON_HPP
