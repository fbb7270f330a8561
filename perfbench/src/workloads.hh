/**
 * @file
 * The three workloads. Each one times calls into the library's public
 * functions from this directory, checks the outputs it can check, and
 * returns raw samples; main.cc turns them into metrics.
 *
 *  - campaign:  a reduced bench_fig10a_main (capture, then forecast all
 *               seven Fig. 10a policies to 50% NVM capacity, one worker)
 *  - scenarios: ChampSim conversion, .hlt round trips and single-phase
 *               replays of adversarial scenario traces
 *  - serve:     an in-process serve::Server driven by an open-loop
 *               generator over a Unix socket
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"
#include "sim/experiment.hh"
#include "spans.hh"

namespace perfbench
{

struct Options
{
    std::uint64_t seed = 1;
    double seconds = 10.0;   //!< measured-phase budget of a full run
    std::string workDir;     //!< scratch directory inside the checkout
};

enum class Mode
{
    Full,   //!< the untraced end-to-end run
    Traced, //!< one traced unit plus probes: the per-layer numbers
};

/** Raw samples of one workload run. */
struct Measured
{
    std::vector<double> setupS;     //!< one per set-up, spread over the run
    std::vector<double> unitWallS;  //!< one per measured unit
    std::vector<double> unitCpuS;
    std::vector<double> unitEvents; //!< LLC events replayed per unit
    std::vector<double> opLatencyMs; //!< one per operation
    /**
     * The same samples split into windows that each hold enough for a
     * p99; the percentiles are then the median over windows, so a host
     * stall in one window does not set them. Empty: one window.
     */
    std::vector<std::vector<double>> latencyWindowsMs;
    double maxRateRps = 0.0;
    double paperErr = 0.0;
    double peakRssMiB = 0.0;        //!< taken before any untimed check
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< first few failure messages
    Values layer;                   //!< per-layer metrics (Traced only)

    void fail(const std::string &message);
};

/** The bench_fig10a_main study entries, labelled as fig10aPolicies(). */
std::vector<hllc::sim::StudyEntry>
fig10aEntries(const hllc::sim::SystemConfig &config);

/** Result digest and paper error of one Fig. 10a campaign. */
struct Fidelity
{
    std::string digest;
    double paperErr = 0.0;
};

Measured runCampaign(const Options &options, Mode mode, Tracer &tracer);
Measured runScenarios(const Options &options, Mode mode, Tracer &tracer);
Measured runServe(const Options &options, Mode mode, Tracer &tracer);

/**
 * The campaign workload's Fig. 10a study run once, untimed: the
 * fidelity check every other workload ends with.
 */
Fidelity campaignFidelity(std::uint64_t seed);

/**
 * Compare @p digest with the one an earlier run of the same seed left
 * under @p work_dir (traced or not, any workload); record it when it is
 * the first. Returns false on a mismatch.
 */
bool matchesEarlierDigest(const std::string &work_dir, std::uint64_t seed,
                          const std::string &digest);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
