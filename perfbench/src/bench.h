/**
 * @file
 * What the workloads share: options, the result they hand back to
 * main, the heap sampler, and the post-window probe phase.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "core/runtime.h"
#include "serve/server.h"
#include "services/concurrent_reloc_daemon.h"

namespace perfbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans at exit. */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one run reports. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Reported with --trace 0 (and printed by the traced run so the
     *  tracing overhead can be taken against an untraced run). */
    std::vector<Metric> endToEnd;
    /** Reported with --trace 1. */
    std::vector<Metric> perLayer;
    /** Printed for people, under the names the docs use. */
    std::vector<Metric> info;
    /** The traced run's spans and samples, written at exit. */
    std::string traceText;
};

/** The kv workloads' heap: records loaded, then every even one
 *  deleted, so RSS/live starts near 2. */
constexpr uint64_t kKvRecords = 200000;

/**
 * Samples the heap every 10 ms from an unregistered thread (so it never
 * holds up a barrier): RSS/live, RSS and extent/live averaged over the
 * window, and, when tracing, one row of daemon counter deltas per
 * 100 ms.
 */
class HeapSampler
{
  public:
    HeapSampler(alaska::anchorage::AnchorageService &service,
                const alaska::ConcurrentRelocDaemon &daemon, bool trace);
    ~HeapSampler();

    HeapSampler(const HeapSampler &) = delete;
    HeapSampler &operator=(const HeapSampler &) = delete;

    /** Stop sampling and join. Idempotent. */
    void stop();

    double rssPerLiveMean() const { return mean(rssPerLive_); }
    double rssMbMean() const { return mean(rssMb_); }
    double fragmentationMean() const { return mean(frag_); }
    /** CSV rows: t_ms,passes,barriers,moved_bytes,committed,aborted,
     *  reclaimed_bytes,rss_bytes,live_bytes (deltas except the last
     *  two). */
    const std::string &windows() const { return windows_; }

  private:
    void run();
    static double mean(const std::vector<double> &v);

    alaska::anchorage::AnchorageService &service_;
    const alaska::ConcurrentRelocDaemon &daemon_;
    bool trace_;
    std::atomic<bool> stop_{false};
    std::vector<double> rssPerLive_, rssMb_, frag_;
    std::string windows_;
    std::thread thread_;
};

/**
 * The probe phase of a traced run: after the window, with the daemon
 * gone and the server stopped, time MiniKv get/set on the server's
 * shards, direct and scoped translation, halloc/hrealloc/hfree, and
 * handle-ID pairs, each in isolation. Appends kv.*, translate.* and
 * core.* metrics. Must run on a registered thread.
 */
void runProbes(alaska::Runtime &runtime, alaska::serve::Server &server,
               uint64_t liveRecords, uint64_t seed, Outcome &out);

/** Daemon counters over a window: per-layer stw.*, campaign.*,
 *  anchorage.reclaimed_mb, daemon.* metrics. */
struct DaemonSnapshot
{
    alaska::anchorage::DefragStats all, stw, campaign;
    size_t passes = 0;
    double defragSec = 0;
    double pauseSec = 0;

    static DaemonSnapshot take(const alaska::ConcurrentRelocDaemon &d);
};

void addDaemonMetrics(const DaemonSnapshot &before,
                      const DaemonSnapshot &after, double windowSec,
                      const HeapSampler &sampler, Outcome &out);

Outcome runKvRead(const Options &opt);
Outcome runKvWrite(const Options &opt);
Outcome runAllocChurn(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
