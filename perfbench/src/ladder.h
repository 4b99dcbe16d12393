/**
 * @file
 * The rate ladder that finds kv-read's max_rate_rps.
 *
 * A step offers one rate for a fixed time and passes when the get p99
 * meets the latency limit, the backlog did not grow by more than the
 * arrivals of one latency limit, and the generator stayed on schedule
 * (its p99 lag within a tenth of the limit). The step's p99s are
 * medians over slices of the step (see SlicedRecorder), so a stall
 * that hits one slice does not decide the step; a saturated server
 * fails every slice.
 *
 * The ladder multiplies the rate by a fixed factor, up to kMaxRps,
 * until a step fails (or divides it until one passes, if the first
 * rate already fails), then bisects geometrically between the highest
 * pass and the lowest failure. A failing step is run once more and fails only if the
 * rerun fails too, so one stall on a shared host does not end the
 * climb. The result is the highest rate that passed; 0 if no rate down
 * to kMinRps passed.
 */
#ifndef PERFBENCH_LADDER_H
#define PERFBENCH_LADDER_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench
{

/** What one ladder step measured. */
struct StepResult
{
    double rateRps = 0;
    double getP99Us = 0;
    /** Requests submitted but not completed when the step's schedule
     *  began and when it ended. */
    uint64_t backlogStart = 0;
    uint64_t backlogEnd = 0;
    double lagP99Us = 0;
};

/** The ladder's fixed rule (see the file comment). */
namespace ladder
{
constexpr double kP99LimitUs = 1000;
constexpr double kStartRps = 20000;
constexpr double kGrowth = 2;
constexpr double kMinRps = 1000;
constexpr double kMaxRps = 1e6;
constexpr int kBisections = 4;
} // namespace ladder

/** The pass/fail rule for one step. */
inline bool
stepPasses(const StepResult &s)
{
    const double allowedGrowth = s.rateRps * ladder::kP99LimitUs * 1e-6;
    return s.getP99Us <= ladder::kP99LimitUs &&
           static_cast<double>(s.backlogEnd) <=
               static_cast<double>(s.backlogStart) + allowedGrowth &&
           s.lagP99Us <= ladder::kP99LimitUs / 10;
}

/** Run the ladder; every step run is appended to `steps`. */
inline double
climbLadder(const std::function<StepResult(double)> &runStep,
            std::vector<StepResult> &steps)
{
    using namespace ladder;
    auto passes = [&](double rate) {
        for (int attempt = 0; attempt < 2; attempt++) {
            steps.push_back(runStep(rate));
            if (stepPasses(steps.back()))
                return true;
        }
        return false;
    };
    double lo = 0;
    double hi = 0;
    double rate = kStartRps;
    if (passes(rate)) {
        lo = rate;
        // The last step up is clamped to kMaxRps, so the rates between
        // the last doubling and the cap are bisected too.
        while (passes(rate = std::min(rate * kGrowth, kMaxRps))) {
            lo = rate;
            if (rate >= kMaxRps)
                return lo;
        }
        hi = rate;
    } else {
        hi = rate;
        while ((rate /= kGrowth) >= kMinRps && !passes(rate))
            hi = rate;
        if (rate < kMinRps)
            return 0;
        lo = rate;
    }
    for (int i = 0; i < kBisections; i++) {
        const double mid = std::sqrt(lo * hi);
        if (passes(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace perfbench

#endif // PERFBENCH_LADDER_H
