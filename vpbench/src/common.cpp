#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

namespace vpbench
{

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        check("metric_finite", false, name + " is not finite");
        value = 0.0;
    }
    metrics.push_back({name, value, unit});
}

void
Report::endToEnd(const std::string &name, double value,
                 const std::string &unit)
{
    if (traced)
        line(name, value, unit);
    else
        metric(name, value, unit);
}

void
Report::layer(const std::string &name, double value,
              const std::string &unit)
{
    if (traced)
        metric(name, value, unit);
    else
        line(name, value, unit);
}

void
Report::line(const std::string &name, double value,
             const std::string &unit, const std::string &note)
{
    std::ostringstream os;
    os << std::left << std::setw(34) << name << ' '
       << std::setprecision(6) << value << ' ' << unit;
    if (!note.empty())
        os << "  (" << note << ")";
    lines.push_back(os.str());
}

bool
Report::check(const std::string &name, bool ok, const std::string &what)
{
    auto &tally = checks[name];
    if (ok) {
        ++tally.first;
    } else {
        ++tally.second;
        allPassed = false;
        std::cerr << "vpbench: check " << name << " FAILED";
        if (!what.empty())
            std::cerr << ": " << what;
        std::cerr << "\n";
    }
    return ok;
}

void
Report::print(std::ostream &os) const
{
    for (const auto &l : lines)
        os << l << "\n";
    os << "checks:";
    for (const auto &[name, tally] : checks)
        os << ' ' << name << '=' << tally.first << '/'
           << tally.first + tally.second;
    os << "\n";

    os << "{\"correct\": " << (allPassed ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    os << std::setprecision(17);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
           << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}" << std::endl;
}

void
pinToCpu(long slot)
{
    // The mask the process started with, read before any pinning.
    static const cpu_set_t allowed = [] {
        cpu_set_t m;
        CPU_ZERO(&m);
        sched_getaffinity(0, sizeof m, &m);
        return m;
    }();
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                v.push_back(c);
        return v;
    }();
    if (slot < 0 || cpus.empty()) {
        sched_setaffinity(0, sizeof allowed, &allowed);
        return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
}

void
reportCycles(Report &report, const std::vector<Cycle> &cycles,
             double tail_q)
{
    auto med = [&](auto &&fig) {
        std::vector<double> v;
        for (const Cycle &c : cycles)
            v.push_back(fig(c));
        return median(v);
    };
    report.endToEnd("rate_per_s", med([](auto &c) { return c.main.rate(); }),
                    "1/s");
    report.endToEnd("alt_rate_per_s",
                    med([](auto &c) { return c.alt.rate(); }), "1/s");
    report.endToEnd("p50_us",
                    med([](auto &c) { return quantile(c.main.us, 0.5); }),
                    "us");
    report.endToEnd(
        "tail_us", med([&](auto &c) { return quantile(c.main.us, tail_q); }),
        "us");
    report.endToEnd("alt_p50_us",
                    med([](auto &c) { return quantile(c.alt.us, 0.5); }),
                    "us");
    report.endToEnd(
        "alt_tail_us",
        med([&](auto &c) { return quantile(c.alt.us, tail_q); }), "us");
    report.line("cycles", double(cycles.size()), "count",
                "each metric is the median over cycles");
}

double
mainRate(const std::vector<Cycle> &cycles)
{
    double work = 0.0, seconds = 0.0;
    for (const Cycle &c : cycles) {
        work += c.main.work;
        seconds += c.main.seconds;
    }
    return ratio(work, seconds);
}

void
reportTraceOverhead(Report &report, double untraced, double traced)
{
    report.layer("trace.overhead_frac", ratio(untraced - traced, untraced),
                 "fraction");
    report.line("trace.untraced_main", untraced, "1/s");
    report.line("trace.traced_main", traced, "1/s");
}

} // namespace vpbench
