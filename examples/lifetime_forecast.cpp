/**
 * @file
 * Lifetime forecast walkthrough (the paper's Fig. 1 methodology): runs
 * the forecasting procedure for a chosen policy and prints the temporal
 * evolution of NVM capacity and IPC until 50% capacity is lost.
 *
 * Usage: lifetime_forecast [policy] [num_mixes]
 */

#include <cstdio>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "workload/mixes.hh"

using namespace hllc;
using hybrid::PolicyKind;

namespace
{

PolicyKind
parsePolicy(const char *name)
{
    // The all-SRAM bound has no NVM to wear out.
    const auto kind = hybrid::policyFromName(name);
    if (!kind || *kind == PolicyKind::SramOnly)
        fatal("unknown policy '%s'", name);
    return *kind;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    const PolicyKind policy =
        argc > 1 ? parsePolicy(argv[1]) : PolicyKind::CpSd;
    const auto num_mixes = parseUnsigned(
        argc > 2 ? argv[2] : "10", 1,
        static_cast<unsigned>(workload::tableVMixes().size()));
    if (!num_mixes) {
        fatal("bad num_mixes '%s' (expected 1..%zu)\n"
              "usage: %s [policy] [num_mixes]",
              argv[2], workload::tableVMixes().size(), argv[0]);
    }

    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    sim::printConfigHeader(config, "lifetime forecast");
    const sim::Experiment experiment(config, *num_mixes);

    const double upper = experiment.upperBoundIpc();
    std::printf("# 16w-SRAM upper-bound IPC: %.4f\n", upper);

    const auto summary = experiment.runForecast(
        config.llcConfig(policy), std::string(hybrid::policyName(policy)));

    std::printf("\n%8s %10s %10s %10s %12s\n", "months", "capacity",
                "IPC", "normIPC", "NVM MB/s");
    for (const auto &point : summary.series) {
        std::printf("%8.2f %10.4f %10.4f %10.4f %12.3f\n",
                    point.months(), point.capacity, point.meanIpc,
                    upper > 0 ? point.meanIpc / upper : 0.0,
                    point.nvmBytesPerSecond / 1e6);
    }
    std::printf("\n%s lifetime (50%% NVM capacity): %.2f months\n",
                summary.label.c_str(), summary.lifetimeMonths);
    return 0;
}
