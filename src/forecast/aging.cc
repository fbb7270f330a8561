#include "forecast/aging.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace hllc::forecast
{

Seconds
chooseAgingStep(const fault::FaultMap &map,
                const fault::EnduranceModel &endurance,
                Seconds window_seconds,
                const AgingStepConfig &config)
{
    HLLC_ASSERT(window_seconds > 0.0);

    const auto &geom = map.geometry();

    // Under frame disabling a single byte death retires 64 bytes, so the
    // same capacity resolution needs 64x fewer byte deaths.
    double kill_fraction = config.targetKillFraction;
    if (map.granularity() == fault::DisableGranularity::Frame)
        kill_fraction /= static_cast<double>(geom.frameBytes);

    const auto total_bytes = static_cast<double>(geom.numBytes());
    std::size_t k = static_cast<std::size_t>(kill_fraction * total_bytes);
    if (k < 1)
        k = 1;

    // The step is the k-th smallest time-to-failure over the live bytes
    // of written frames. A max-heap keeps the k smallest seen so far, so
    // its top ends as exactly that value without storing every byte's.
    std::vector<double> smallest;
    smallest.reserve(k);
    std::size_t written_bytes = 0;
    for (std::uint32_t f = 0; f < geom.numFrames(); ++f) {
        const double pending = map.pendingWrites(f);
        if (pending <= 0.0)
            continue;
        const unsigned live = map.liveBytes(f);
        if (live == 0)
            continue;
        // Wear leveling spreads the frame's traffic over its live bytes.
        const double rate = pending / (live * window_seconds);
        const std::uint64_t mask = map.liveMask(f);
        for (unsigned b = 0; b < geom.frameBytes; ++b) {
            if (!(mask & (std::uint64_t{1} << b)))
                continue;
            const double remaining =
                endurance.limit(f, b) - map.writesSoFar(f, b);
            const double ttf = remaining <= 0.0 ? 0.0 : remaining / rate;
            ++written_bytes;
            if (smallest.size() < k) {
                smallest.push_back(ttf);
                std::push_heap(smallest.begin(), smallest.end());
            } else if (ttf < smallest.front()) {
                std::pop_heap(smallest.begin(), smallest.end());
                smallest.back() = ttf;
                std::push_heap(smallest.begin(), smallest.end());
            }
        }
    }

    // At most k written bytes (or none): wear too light to resolve
    // within one step.
    if (k >= written_bytes)
        return config.maxStep;
    return std::clamp(smallest.front(), config.minStep, config.maxStep);
}

} // namespace hllc::forecast
