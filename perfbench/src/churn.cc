/**
 * @file
 * alloc-churn: no server. Three registered threads each keep a live
 * set of objects and, in a closed loop, replace random slots through
 * halloc/hfree or resize them through hrealloc, while the size mix
 * drifts slowly between small and large objects so freed holes stop
 * fitting new requests. The stop-the-world daemon compacts underneath.
 *
 * Every object carries a stamp in its first and last 8 bytes, written
 * when it is allocated and checked before it is freed or resized and
 * once more at the end; a mismatch is a failed operation.
 */
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <numbers>

#include "bench.h"
#include "core/translate.h"
#include "generator.h"
#include "recorder.h"
#include "sim/address_space.h"

namespace perfbench
{

namespace
{

constexpr int kThreads = 3;
constexpr size_t kSlotsPerThread = 50000;
/** Ops per full small -> large -> small cycle of the size mix. */
constexpr double kDriftPeriodOps = 4e5;
/** One op in this many is timed on its own. */
constexpr uint64_t kTimeEvery = 8;
/** The window is cut into this many slices (see SlicedRecorder). */
constexpr size_t kSlices = 20;
/** setup_s is the median of this many builds per run; one build takes
 *  only tens of milliseconds, so it takes many for a steady median. */
constexpr int kSetupRepeats = 15;

struct Slot
{
    void *handle = nullptr;
    uint32_t size = 0;
    uint64_t stamp = 0;
};

/** Size for a thread's n-th op: uniform in [c/2, 3c/2) around a centre
 *  c that swings between 64 and 256 bytes over kDriftPeriodOps. */
size_t
sizeFor(uint64_t op, Rng &rng)
{
    const double phase = static_cast<double>(op) / kDriftPeriodOps;
    const double c =
        64.0 * std::exp2(1.0 - std::cos(2 * std::numbers::pi * phase));
    const uint64_t centre = static_cast<uint64_t>(c);
    return std::max<uint64_t>(16, centre / 2 + rng.below(centre));
}

void
writeStamp(const Slot &s)
{
    char *p = static_cast<char *>(alaska::translate(s.handle));
    std::memcpy(p, &s.stamp, 8);
    std::memcpy(p + s.size - 8, &s.stamp, 8);
}

bool
stampOk(const Slot &s)
{
    const char *p = static_cast<const char *>(alaska::translate(s.handle));
    uint64_t head = 0, tail = 0;
    std::memcpy(&head, p, 8);
    std::memcpy(&tail, p + s.size - 8, 8);
    return head == s.stamp && tail == s.stamp;
}

/** The churn heap. */
struct ChurnSystem
{
    alaska::RealAddressSpace space;
    alaska::anchorage::AnchorageService service{space};
    alaska::Runtime runtime;

    ChurnSystem() { runtime.attachService(&service); }
};

/**
 * The three churn threads. Each fills its live set, then parks (in
 * external mode, so it never holds up a barrier) until the main
 * thread moves it on: to churn, to verify, or straight to freeing.
 */
class Churners
{
  public:
    enum class Stage
    {
        Fill,
        Churn,
        Verify,
        Free,
    };

    Churners(alaska::Runtime &runtime, uint64_t seed)
        : runtime_(runtime), seed_(seed), perThread_(kThreads)
    {
        for (int t = 0; t < kThreads; t++)
            threads_.emplace_back([this, t] { main(t); });
    }

    ~Churners()
    {
        stopChurn();
        advance(Stage::Free);
        for (auto &t : threads_)
            t.join();
    }

    Churners(const Churners &) = delete;
    Churners &operator=(const Churners &) = delete;

    /** Wait until every thread finished its current stage, then move
     *  them all to `stage`. */
    void
    advance(Stage stage)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return ready_ == kThreads; });
        ready_ = 0;
        stage_ = stage;
        generation_++;
        cv_.notify_all();
    }

    /** Start the window at `startNs`: cut it into slices and set the
     *  threads churning. */
    void
    beginWindow(uint64_t startNs, uint64_t sliceNs)
    {
        for (PerThread &me : perThread_) {
            me.latency = SlicedRecorder(startNs, sliceNs, kSlices);
            me.sliceCalls.assign(kSlices, 0);
        }
        start_ = startNs;
        sliceNs_ = sliceNs;
        advance(Stage::Churn);
    }

    /** End the churn stage: threads finish their current op. */
    void stopChurn() { stopChurn_.store(true, std::memory_order_release); }

    /** Wait until every thread finished its current stage. */
    void
    waitReady()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return ready_ == kThreads; });
    }

    /** Written only by its own thread; read after it parked. Padded
     *  so the threads' counters never share a cache line. */
    struct alignas(64) PerThread
    {
        SlicedRecorder latency{0, 1, 0};
        /** Allocator calls (halloc, hfree, hrealloc) per slice. */
        std::vector<uint64_t> sliceCalls;
        uint64_t ops = 0;
        uint64_t badStamps = 0;
        uint64_t checks = 0;
    };

    const std::vector<PerThread> &results() const { return perThread_; }

  private:
    void
    main(int t)
    {
        alaska::ThreadRegistration reg(runtime_);
        PerThread &me = perThread_[t];
        Rng rng(mix64(seed_) + static_cast<uint64_t>(t) * 0x51ed27ull);
        std::vector<Slot> slots(kSlotsPerThread);
        uint64_t op = 0;
        uint64_t nextStamp = mix64(seed_ ^ static_cast<uint64_t>(t + 1));
        auto place = [&](Slot &s, void *h, size_t size) {
            s.handle = h;
            s.size = static_cast<uint32_t>(size);
            s.stamp = nextStamp++;
            writeStamp(s);
        };
        auto check = [&](const Slot &s) {
            me.checks++;
            if (!stampOk(s))
                me.badStamps++;
        };

        for (Slot &s : slots) {
            alaska::poll();
            const size_t size = sizeFor(op++, rng);
            place(s, runtime_.halloc(size), size);
        }
        Stage stage = waitNext();

        if (stage == Stage::Churn) {
            size_t slice = 0;
            while (!stopChurn_.load(std::memory_order_acquire)) {
                const bool timed = me.ops % kTimeEvery == 0;
                const uint64_t t0 = timed ? clockNs() : 0;
                if (timed)
                    slice = (t0 - start_) / sliceNs_;
                alaska::poll();
                Slot &s = slots[rng.below(kSlotsPerThread)];
                const size_t size = sizeFor(op++, rng);
                check(s);
                uint64_t calls = 1;
                if (rng.below(4) == 0) {
                    place(s, runtime_.hrealloc(s.handle, size), size);
                } else {
                    runtime_.hfree(s.handle);
                    place(s, runtime_.halloc(size), size);
                    calls = 2;
                }
                me.ops++;
                if (slice < kSlices)
                    me.sliceCalls[slice] += calls;
                if (timed)
                    me.latency.record(t0, clockNs() - t0);
            }
            stage = waitNext();
        }
        if (stage == Stage::Verify) {
            for (const Slot &s : slots) {
                alaska::poll();
                check(s);
            }
            stage = waitNext();
        }
        for (const Slot &s : slots)
            runtime_.hfree(s.handle);
    }

    /** Report the current stage done and park until the main thread moves
     *  on; returns the new stage. */
    Stage
    waitNext()
    {
        runtime_.enterExternal();
        Stage next;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            const uint64_t seen = generation_;
            ready_++;
            cv_.notify_all();
            cv_.wait(lock, [&] { return generation_ != seen; });
            next = stage_;
        }
        runtime_.leaveExternal();
        return next;
    }

    alaska::Runtime &runtime_;
    uint64_t seed_;
    std::mutex mutex_;
    std::condition_variable cv_;
    Stage stage_ = Stage::Fill;
    uint64_t generation_ = 0;
    int ready_ = 0;
    std::atomic<bool> stopChurn_{false};
    /** Set before the threads start churning. */
    uint64_t start_ = 0;
    uint64_t sliceNs_ = 1;
    std::vector<PerThread> perThread_;
    std::vector<std::thread> threads_;
};

} // namespace

Outcome
runAllocChurn(const Options &opt)
{
    Outcome out;

    // Set-up: build the heap and fill the live sets, kSetupRepeats
    // times; keep the last.
    std::vector<double> times;
    std::unique_ptr<ChurnSystem> sys;
    std::unique_ptr<Churners> churners;
    for (int i = 0; i < kSetupRepeats; i++) {
        churners.reset();
        sys.reset();
        const uint64_t t0 = clockNs();
        sys = std::make_unique<ChurnSystem>();
        churners = std::make_unique<Churners>(sys->runtime, opt.seed);
        churners->waitReady();
        times.push_back(static_cast<double>(clockNs() - t0) * 1e-9);
    }

    alaska::anchorage::ControlParams params;
    params.mode = alaska::anchorage::DefragMode::StopTheWorld;
    auto daemon = std::make_unique<alaska::ConcurrentRelocDaemon>(
        sys->runtime, sys->service, params);
    daemon->start();

    HeapSampler sampler(sys->service, *daemon, opt.trace);
    const DaemonSnapshot d0 = DaemonSnapshot::take(*daemon);
    const uint64_t w0 = clockNs();
    churners->beginWindow(
        w0, static_cast<uint64_t>(opt.seconds * 1e9 / kSlices));
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
    churners->stopChurn();
    churners->waitReady();
    const double windowSec = static_cast<double>(clockNs() - w0) * 1e-9;
    sampler.stop();
    const DaemonSnapshot d1 = DaemonSnapshot::take(*daemon);
    daemon->stop();
    daemon.reset();

    churners->advance(Churners::Stage::Verify);
    churners->waitReady();

    SlicedRecorder latency(w0, 1, kSlices);
    std::vector<double> callRates(kSlices, 0);
    for (const auto &r : churners->results()) {
        latency.merge(r.latency);
        for (size_t i = 0; i < kSlices; i++)
            callRates[i] += static_cast<double>(r.sliceCalls[i]) * kSlices /
                            opt.seconds;
        out.attempted += r.checks;
        out.failed += r.badStamps;
    }
    const double callsPerSec = median(callRates);

    if (opt.trace) {
        out.traceText += "# daemon windows (100 ms)\n" + sampler.windows();
        // No server runs in this workload: serve and gen are idle.
        out.perLayer.insert(out.perLayer.end(),
                            {{"serve.submit_p99_us", 0, "us"},
                             {"serve.steal_frac", 0, "ratio"},
                             {"serve.queue_depth_p99", 0, "count"},
                             {"serve.backpressure_frac", 0, "ratio"},
                             {"gen.lag_p99_us", 0, "us"}});
        addDaemonMetrics(d0, d1, windowSec, sampler, out);
        out.perLayer.push_back({"campaign.get_p99_us", 0, "us"});
        // The kv probes need a store: a small unstarted server over the
        // same heap, loaded while the live sets are still allocated.
        alaska::ThreadRegistration reg(sys->runtime);
        constexpr uint64_t kProbeRecords = 40000;
        alaska::serve::ServerConfig config;
        config.workers = 2;
        alaska::serve::Server probeServer(sys->runtime, config);
        probeServer.populate(kProbeRecords);
        runProbes(sys->runtime, probeServer, kProbeRecords / 2, opt.seed, out);
        probeServer.clearStores();
    }
    churners.reset();

    out.endToEnd = {
        {"setup_s", median(times), "s"},
        {"heap_rss_per_live", sampler.rssPerLiveMean(), "ratio"},
        {"p50_us", latency.percentile(50) / 1e3, "us"},
        {"p99_us", latency.percentile(99) / 1e3, "us"},
        {"throughput_per_s", callsPerSec, "1/s"},
    };
    out.info = {
        {"alloc_mops", callsPerSec / 1e6, "Mops/s"},
        {"op_samples", static_cast<double>(latency.total().count()), "count"},
    };
    return out;
}

} // namespace perfbench
