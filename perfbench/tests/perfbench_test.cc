// The benchmark's own tests: the recorder against an exact sort, the
// generator's rate and determinism, and the ladder's pass/fail rule.

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "generator.h"
#include "ladder.h"
#include "recorder.h"

namespace perfbench
{
namespace
{

double
exactPercentile(std::vector<uint64_t> v, double p)
{
    std::sort(v.begin(), v.end());
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(p / 100.0 * v.size())));
    return static_cast<double>(v[rank - 1]);
}

TEST(Recorder, PercentilesWithinOnePercentOfExactSort)
{
    Rng rng(7);
    // Three shapes: small exact values, a wide log-uniform spread, and
    // a bimodal fast path with a slow tail.
    std::vector<std::vector<uint64_t>> inputs(3);
    for (int i = 0; i < 200000; i++) {
        inputs[0].push_back(rng.below(100));
        inputs[1].push_back(static_cast<uint64_t>(
            std::exp2(4 + 30 * rng.real())));
        inputs[2].push_back(rng.below(100) == 0 ? 50000000 + rng.below(1000000)
                                                : 200 + rng.below(50));
    }
    for (const auto &input : inputs) {
        Recorder r;
        for (uint64_t v : input)
            r.record(v);
        ASSERT_EQ(r.count(), input.size());
        for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
            const double exact = exactPercentile(input, p);
            EXPECT_LE(std::abs(r.percentile(p) - exact), 0.01 * exact + 0.5)
                << "p" << p;
        }
    }
}

TEST(Recorder, MergeEqualsRecordingEverything)
{
    Recorder a, b, all;
    for (uint64_t v = 1; v < 100000; v += 7) {
        (v % 2 ? a : b).record(v);
        all.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.max(), all.max());
    for (double p : {50.0, 99.0})
        EXPECT_EQ(a.percentile(p), all.percentile(p));
}

TEST(Recorder, BucketsCoverEveryValue)
{
    for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                       uint64_t{1} << 40, ~uint64_t{0}}) {
        const size_t i = Recorder::indexOf(v);
        ASSERT_LT(i, Recorder::kBuckets);
        EXPECT_LE(Recorder::lowerBound(i), v);
        EXPECT_LE(v - Recorder::lowerBound(i), Recorder::width(i) - 1);
    }
}

TEST(Generator, MeanRateMatchesTheRequestedRate)
{
    const Zipfian zipf(1000, 0.99);
    for (double rate : {1000.0, 20000.0, 200000.0}) {
        ScheduleConfig c;
        c.seed = 3;
        c.ratePerSec = rate;
        c.seconds = 200000 / rate;
        const auto s = makeSchedule(c, zipf);
        EXPECT_NEAR(static_cast<double>(s.size()), 200000, 200000 * 0.01);
        for (size_t i = 1; i < s.size(); i++)
            ASSERT_LE(s[i - 1].atNs, s[i].atNs);
        EXPECT_LT(s.back().atNs, static_cast<uint64_t>(c.seconds * 1e9));
    }
}

TEST(Generator, SameSeedSameScheduleOtherSeedOther)
{
    const Zipfian zipf(50000, 0.99);
    ScheduleConfig c;
    c.liveKeys = 50000;
    c.seconds = 0.5;
    c.seed = 11;
    const auto a = makeSchedule(c, zipf);
    const auto b = makeSchedule(c, zipf);
    c.seed = 12;
    const auto other = makeSchedule(c, zipf);
    ASSERT_EQ(a.size(), b.size());
    size_t setCount = 0;
    for (size_t i = 0; i < a.size(); i++) {
        ASSERT_EQ(a[i].atNs, b[i].atNs);
        ASSERT_EQ(a[i].key, b[i].key);
        ASSERT_EQ(a[i].isSet, b[i].isSet);
        ASSERT_EQ(a[i].key % 2, 1u);
        ASSERT_LT(a[i].key, 2 * c.liveKeys);
        setCount += a[i].isSet;
    }
    EXPECT_NEAR(static_cast<double>(setCount) / a.size(), c.setFraction, 0.01);
    size_t same = 0;
    for (size_t i = 0; i < std::min(a.size(), other.size()); i++)
        same += a[i].atNs == other[i].atNs;
    EXPECT_LT(same, a.size() / 100);
}

TEST(Ladder, StepRule)
{
    StepResult ok{.rateRps = 100000, .getP99Us = 900, .backlogStart = 0,
                  .backlogEnd = 50, .lagP99Us = 20};
    EXPECT_TRUE(stepPasses(ok));
    StepResult slow = ok;
    slow.getP99Us = 1001;
    EXPECT_FALSE(stepPasses(slow));
    StepResult growing = ok;
    growing.backlogEnd = 101; // more than one limit's worth of arrivals
    EXPECT_FALSE(stepPasses(growing));
    StepResult late = ok;
    late.lagP99Us = 101;
    EXPECT_FALSE(stepPasses(late));
}

/** A synthetic server whose p99 explodes above `knee` req/s. */
std::function<StepResult(double)>
serverWithKnee(double knee)
{
    return [knee](double rate) {
        StepResult r;
        r.rateRps = rate;
        r.getP99Us = rate <= knee ? 300 : 5000;
        r.backlogEnd = rate <= knee ? 0 : 100000;
        return r;
    };
}

/** The ladder's resolution: four geometric bisections of a doubling. */
const double kResolution =
    std::pow(ladder::kGrowth, 1.0 / (1 << ladder::kBisections));

TEST(Ladder, FindsTheKneeOfSyntheticSteps)
{
    // 20k, 40k and 80k pass, 160k fails, then four bisections.
    const double knee = 137000;
    std::vector<StepResult> steps;
    const double found = climbLadder(serverWithKnee(knee), steps);
    EXPECT_LE(found, knee);
    EXPECT_GE(found, knee / kResolution);
    // Every failing rate was run twice, every passing rate once.
    size_t failures = 0;
    for (const StepResult &s : steps)
        failures += !stepPasses(s);
    EXPECT_EQ(failures % 2, 0u);
    EXPECT_EQ(steps.size(), 4u + ladder::kBisections + failures / 2);
}

TEST(Ladder, WalksDownWhenTheStartRateFails)
{
    // 20k and 10k fail, 5k passes, then four bisections.
    const double knee = 7300;
    std::vector<StepResult> steps;
    const double found = climbLadder(serverWithKnee(knee), steps);
    EXPECT_LE(found, knee);
    EXPECT_GE(found, knee / kResolution);
    EXPECT_EQ(steps.front().rateRps, ladder::kStartRps);
}

TEST(Ladder, ZeroWhenNoRatePasses)
{
    std::vector<StepResult> steps;
    EXPECT_EQ(climbLadder(serverWithKnee(0), steps), 0);
    EXPECT_GE(steps.back().rateRps, ladder::kMinRps);
    EXPECT_LT(steps.back().rateRps, ladder::kMinRps * ladder::kGrowth);
}

TEST(Ladder, StopsAtTheMaximumRate)
{
    std::vector<StepResult> steps;
    EXPECT_EQ(climbLadder(serverWithKnee(1e9), steps), ladder::kMaxRps);
    for (const StepResult &s : steps)
        EXPECT_TRUE(stepPasses(s));
}

TEST(Ladder, BisectsBetweenTheLastDoublingAndTheMaximumRate)
{
    // 640k passes and the next doubling is past kMaxRps: the ladder
    // tries kMaxRps, which fails, and bisects between the two.
    const double knee = 800000;
    std::vector<StepResult> steps;
    const double found = climbLadder(serverWithKnee(knee), steps);
    EXPECT_GT(found, 640000);
    EXPECT_LE(found, knee);
}

TEST(Ladder, OneStallDoesNotEndTheClimb)
{
    // Every rate up to 300k req/s passes, except the first run of 40k.
    int runs40k = 0;
    auto step = [&](double rate) {
        StepResult r;
        r.rateRps = rate;
        const bool stall = rate == 40000 && runs40k++ == 0;
        r.getP99Us = stall || rate > 300000 ? 5000 : 300;
        return r;
    };
    std::vector<StepResult> steps;
    EXPECT_GT(climbLadder(step, steps), 200000);
    EXPECT_EQ(runs40k, 2);
}

} // namespace
} // namespace perfbench
