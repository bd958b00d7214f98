/**
 * @file
 * vpbench — one wall-clock benchmark over the value-profiling stack.
 *
 * Usage: vpbench --workload profile|fleet|adapt --seed N --seconds S
 *                --trace 0|1 [--out-dir DIR] [--rate R]
 *
 * An untraced run (--trace 0) times the workload's loop for S seconds
 * and prints the end-to-end metrics. A traced run (--trace 1) runs the
 * same loop untraced and then traced for a share of S each (their gap
 * is the tracing overhead), then times the per-layer legs of every
 * layer, writes the recorded spans to DIR/trace-<workload>-<seed>.json
 * and prints the per-layer metrics. Every run checks the outputs of
 * the library and prints, as its last line, one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * --rate overrides the fleet workload's HTTP request rate (used to
 * find the rate at which query p99 starts to climb).
 */

#include <sys/stat.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "vpbench: " << why << "\n"
              << "usage: vpbench --workload profile|fleet|adapt "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--rate R]\n";
    std::exit(2);
}

vpbench::Options
parseArgs(int argc, char **argv)
{
    vpbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--out-dir")
                opt.outDir = v;
            else if (a == "--rate")
                opt.httpRate = std::stod(v);
            else
                usage(("unknown option " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (opt.workload != "profile" && opt.workload != "fleet" &&
        opt.workload != "adapt")
        usage("--workload must be profile, fleet or adapt");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    if (!(opt.httpRate > 0.0))
        usage("--rate must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const vpbench::Options opt = parseArgs(argc, argv);
    ::mkdir(opt.outDir.c_str(), 0755);
    vpbench::Report report(opt.trace);
    try {
        if (opt.workload == "profile")
            vpbench::runProfile(opt, report);
        else if (opt.workload == "fleet")
            vpbench::runFleet(opt, report);
        else
            vpbench::runAdapt(opt, report);

        if (opt.trace) {
            // The legs of every layer, whatever the workload, so each
            // traced run prints the whole breakdown. Budget shares
            // follow the legs' cost on the reference box.
            auto &collector = vp::trace::TraceCollector::global();
            collector.setEnabled(true);
            vpbench::profileLayers(opt, report, 0.25 * opt.seconds);
            vpbench::fleetLayers(opt, report, 0.15 * opt.seconds,
                                 opt.workload == "fleet");
            vpbench::adaptLayers(opt, report, 0.2 * opt.seconds);
            collector.setEnabled(false);

            const std::string path = opt.outDir + "/trace-" +
                                     opt.workload + "-" +
                                     std::to_string(opt.seed) + ".json";
            std::ofstream out(path);
            collector.writeJson(out);
            report.check("span_file_written", static_cast<bool>(out),
                         path);
            report.line("trace.spans",
                        static_cast<double>(collector.size()), "count",
                        path);
        } else {
            report.endToEnd("peak_rss_mb", vpbench::peakRssMb(), "MB");
        }
    } catch (const std::exception &e) {
        std::cerr << "vpbench: " << e.what() << "\n";
        return 1;
    }
    report.line("failed_frac",
                vpbench::ratio(double(report.failedOps()),
                               double(report.attemptedOps())),
                "fraction",
                std::to_string(report.attemptedOps()) + " ops attempted");
    report.print(std::cout);
    return 0;
}
