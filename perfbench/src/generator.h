/**
 * @file
 * The benchmark's open-loop load: a seeded schedule of arrivals.
 *
 * makeSchedule() turns (seed, rate, duration, mix) into a list of
 * arrivals, each with its intended send offset, its op and its key.
 * Gaps are exponential (Poisson arrivals); keys are the given
 * Zipfian's ranks, scrambled over the live key space as YCSB does.
 * The schedule is built before the timed window, so generating it
 * costs the window nothing, and it depends on the seed alone: the
 * program under test cannot change the load it is offered.
 */
#ifndef PERFBENCH_GENERATOR_H
#define PERFBENCH_GENERATOR_H

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** splitmix64 finaliser; also the seed expander for Rng. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** xoshiro256** seeded through splitmix64. */
class Rng
{
  public:
    explicit Rng(uint64_t seed)
    {
        for (auto &w : s_) {
            seed += 0x9e3779b97f4a7c15ull;
            w = mix64(seed);
        }
    }

    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform in [0, 1). */
    double real() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /** Uniform in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
    uint64_t s_[4];
};

/** Zipfian ranks over [0, n) by Gray et al.'s method, as YCSB does. */
class Zipfian
{
  public:
    Zipfian(uint64_t n, double theta) : n_(n), theta_(theta)
    {
        double zetan = 0;
        for (uint64_t i = 1; i <= n; i++)
            zetan += 1.0 / std::pow(static_cast<double>(i), theta);
        zetan_ = zetan;
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan_);
    }

    uint64_t
    next(Rng &rng) const
    {
        const double u = rng.real();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const uint64_t r = static_cast<uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return r < n_ ? r : n_ - 1;
    }

  private:
    uint64_t n_;
    double theta_;
    double zetan_ = 0;
    double alpha_ = 0;
    double eta_ = 0;
};

/** One scheduled request. */
struct Arrival
{
    /** Intended send time, ns after the schedule's start. */
    uint64_t atNs = 0;
    /** Record id the request addresses. */
    uint64_t key = 0;
    bool isSet = false;
};

/** What a schedule offers. */
struct ScheduleConfig
{
    uint64_t seed = 1;
    double ratePerSec = 20000;
    double seconds = 1;
    /** Share of requests that are sets; the rest are gets. */
    double setFraction = 0.05;
    /** Keys are drawn from [0, liveKeys) and mapped to record id
     *  2k+1: the odd records are the ones that stay live. */
    uint64_t liveKeys = 100000;
};

/** Build the arrival list for one phase: Poisson gaps at the given
 *  mean rate, until `seconds` of schedule are filled. */
inline std::vector<Arrival>
makeSchedule(const ScheduleConfig &config, const Zipfian &zipf)
{
    Rng rng(mix64(config.seed) ^ 0x0a11a5ca5e5ull);
    const double meanGapNs = 1e9 / config.ratePerSec;
    const double endNs = config.seconds * 1e9;
    std::vector<Arrival> out;
    out.reserve(static_cast<size_t>(config.ratePerSec * config.seconds * 1.1) + 16);
    double t = 0;
    for (;;) {
        t += -std::log(1.0 - rng.real()) * meanGapNs;
        if (t >= endNs)
            break;
        Arrival a;
        a.atNs = static_cast<uint64_t>(t);
        // Scramble the zipfian rank so the popular keys are spread
        // over the key space (and over the server's shards).
        const uint64_t rank = zipf.next(rng);
        a.key = 2 * (mix64(rank) % config.liveKeys) + 1;
        a.isSet = rng.real() < config.setFraction;
        out.push_back(a);
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_H
