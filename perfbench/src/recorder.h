/**
 * @file
 * The benchmark's own latency recorder and clock.
 *
 * The recorder is a log-linear histogram: values below 128 ns are
 * exact, and above that every power of two is split into 128 linear
 * sub-buckets, so a bucket is at most 1/128 (0.78%) of its value wide
 * and a percentile read at the bucket midpoint is within 0.4% of the
 * exact sample. Memory is constant (7424 counters) and recorders
 * merge, so each thread can own one and the results fold at the end.
 *
 * The benchmark deliberately does not use the program's own
 * histograms: a change to the program must not change how the program
 * is measured.
 */
#ifndef PERFBENCH_RECORDER_H
#define PERFBENCH_RECORDER_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock; the benchmark's only timebase. */
inline uint64_t
clockNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Log-linear histogram of non-negative integer samples (ns). */
class Recorder
{
  public:
    static constexpr int kSubBits = 7;
    static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
    static constexpr size_t kBuckets =
        kSub + (64 - kSubBits) * kSub;

    Recorder() : counts_(kBuckets, 0) {}

    void
    record(uint64_t v)
    {
        counts_[indexOf(v)]++;
        n_++;
        max_ = std::max(max_, v);
    }

    void
    merge(const Recorder &other)
    {
        for (size_t i = 0; i < kBuckets; i++)
            counts_[i] += other.counts_[i];
        n_ += other.n_;
        max_ = std::max(max_, other.max_);
    }

    uint64_t count() const { return n_; }
    uint64_t max() const { return max_; }

    /**
     * Nearest-rank percentile p in [0, 100], read at the midpoint of
     * the bucket holding that rank (clamped to the recorded max).
     * 0 when empty.
     */
    double
    percentile(double p) const
    {
        if (n_ == 0)
            return 0;
        const double exact = std::ceil(p / 100.0 * static_cast<double>(n_));
        const uint64_t rank =
            std::clamp<uint64_t>(static_cast<uint64_t>(exact), 1, n_);
        uint64_t seen = 0;
        for (size_t i = 0; i < kBuckets; i++) {
            seen += counts_[i];
            if (seen >= rank) {
                const uint64_t lo = lowerBound(i);
                const double mid = static_cast<double>(lo) +
                                   static_cast<double>(width(i) - 1) / 2;
                return std::min(mid, static_cast<double>(max_));
            }
        }
        return static_cast<double>(max_);
    }

    static size_t
    indexOf(uint64_t v)
    {
        if (v < kSub)
            return static_cast<size_t>(v);
        const int e = 63 - __builtin_clzll(v);
        const int shift = e - kSubBits;
        const uint64_t sub = (v >> shift) - kSub;
        return static_cast<size_t>(kSub + static_cast<uint64_t>(shift) * kSub +
                                   sub);
    }

    static uint64_t
    lowerBound(size_t i)
    {
        if (i < kSub)
            return i;
        const uint64_t shift = (i - kSub) / kSub;
        const uint64_t sub = (i - kSub) % kSub;
        return (kSub + sub) << shift;
    }

    static uint64_t
    width(size_t i)
    {
        return i < kSub ? 1 : uint64_t{1} << ((i - kSub) / kSub);
    }

  private:
    std::vector<uint64_t> counts_;
    uint64_t n_ = 0;
    uint64_t max_ = 0;
};

/** Median of a non-empty list of measurements. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * A window cut into equal time slices, one recorder per slice. The
 * end-to-end figures are medians over the slices, so one slice that a
 * noisy neighbour slowed down does not move the run's result.
 */
class SlicedRecorder
{
  public:
    SlicedRecorder(uint64_t startNs, uint64_t sliceNs, size_t slices)
        : start_(startNs), sliceNs_(sliceNs), slices_(slices)
    {}

    /** Record a sample taken at time `atNs`; samples outside the
     *  window are dropped. */
    void
    record(uint64_t atNs, uint64_t v)
    {
        if (atNs < start_)
            return;
        const uint64_t i = (atNs - start_) / sliceNs_;
        if (i < slices_.size())
            slices_[i].record(v);
    }

    void
    merge(const SlicedRecorder &other)
    {
        for (size_t i = 0; i < slices_.size() && i < other.slices_.size(); i++)
            slices_[i].merge(other.slices_[i]);
    }

    /** Median over the slices of each slice's percentile p. */
    double
    percentile(double p) const
    {
        std::vector<double> v;
        for (const Recorder &r : slices_)
            if (r.count() > 0)
                v.push_back(r.percentile(p));
        return median(v);
    }

    /** Every slice folded into one recorder. */
    Recorder
    total() const
    {
        Recorder all;
        for (const Recorder &r : slices_)
            all.merge(r);
        return all;
    }

  private:
    uint64_t start_;
    uint64_t sliceNs_;
    std::vector<Recorder> slices_;
};

} // namespace perfbench

#endif // PERFBENCH_RECORDER_H
