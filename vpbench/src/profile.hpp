/**
 * @file
 * Guest programs and the profiling job, shared by the `profile`
 * workload (which times jobs) and the `fleet` workload (whose deltas
 * are snapshots of profiled suite programs).
 */

#ifndef VPBENCH_PROFILE_HPP
#define VPBENCH_PROFILE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "core/snapshot.hpp"
#include "vpsim/cpu.hpp"
#include "vpsim/program.hpp"
#include "workloads/workload.hpp"

namespace vpbench
{

/** One guest program with its native (unprofiled) reference run. */
struct GuestProgram
{
    std::string name;                              ///< "crc:train", "synth:N"
    const workloads::Workload *workload = nullptr; ///< null: synthetic
    std::string dataset;
    vpsim::Program program;
    std::string output;        ///< native run's output
    std::int64_t exitCode = 0; ///< native run's exit code
    std::uint64_t insts = 0;   ///< native run's retired instructions
};

/** The Cpu shape of vpprof's default path. */
vpsim::CpuConfig cpuConfig();

/** Reset the Cpu and inject the program's data set (if any). */
void prepare(vpsim::Cpu &cpu, const GuestProgram &g);

/**
 * Assemble the ten suite programs for both data sets (plus `synthetic`
 * seeded vp::check programs) and run each natively for its reference
 * output. Assembles from source every call — no cached programs.
 */
std::vector<GuestProgram> loadPrograms(std::uint64_t seed,
                                       unsigned synthetic);

/** Outcome of one profiling job. */
struct JobResult
{
    bool ok = false;
    std::string error;
    double seconds = 0.0; ///< job start to snapshot saved
    double setupS = 0.0;  ///< image, manager, profiler, Cpu, inject
    std::uint64_t insts = 0;
    std::uint64_t events = 0; ///< register-write events profiled over
    std::size_t entities = 0;
};

/**
 * vpprof's default path on one program: profile every register write
 * in `mode`, summarize into a ProfileSnapshot, save it as v2. Then
 * check (untimed) that the guest printed its native output and that
 * the snapshot survives save -> tryLoad -> save byte-identical.
 * `keep`, when given, receives the snapshot.
 */
JobResult profileJob(const GuestProgram &g, core::ProfileMode mode,
                     core::ProfileSnapshot *keep = nullptr);

} // namespace vpbench

#endif // VPBENCH_PROFILE_HPP
