#include <algorithm>
#include <chrono>
#include <cstring>

#include "api/api.h"
#include "bench.h"
#include "core/translate.h"
#include "generator.h"
#include "recorder.h"
#include "services/concurrent_reloc.h"
#include "ycsb/ycsb.h"

namespace perfbench
{

using alaska::anchorage::DefragStats;
using alaska::anchorage::MechanismKind;

HeapSampler::HeapSampler(alaska::anchorage::AnchorageService &service,
                         const alaska::ConcurrentRelocDaemon &daemon,
                         bool trace)
    : service_(service), daemon_(daemon), trace_(trace)
{
    if (trace_)
        windows_ = "t_ms,passes,barriers,moved_bytes,committed,aborted,"
                   "reclaimed_bytes,rss_bytes,live_bytes\n";
    thread_ = std::thread([this] { run(); });
}

HeapSampler::~HeapSampler() { stop(); }

void
HeapSampler::stop()
{
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
}

double
HeapSampler::mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void
HeapSampler::run()
{
    const uint64_t start = clockNs();
    DaemonSnapshot last = DaemonSnapshot::take(daemon_);
    for (int tick = 1; !stop_.load(std::memory_order_acquire); tick++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const double rss = static_cast<double>(service_.rss());
        const double live = static_cast<double>(service_.activeBytes());
        const double extent = static_cast<double>(service_.heapExtent());
        if (live > 0) {
            rssPerLive_.push_back(rss / live);
            frag_.push_back(extent / live);
        }
        rssMb_.push_back(rss / 1e6);
        if (trace_ && tick % 10 == 0) {
            const DaemonSnapshot now = DaemonSnapshot::take(daemon_);
            windows_ +=
                std::to_string((clockNs() - start) / 1000000) + "," +
                std::to_string(now.passes - last.passes) + "," +
                std::to_string(now.all.barriers - last.all.barriers) + "," +
                std::to_string(now.all.movedBytes - last.all.movedBytes) +
                "," +
                std::to_string(now.all.committed - last.all.committed) + "," +
                std::to_string(now.all.aborted - last.all.aborted) + "," +
                std::to_string(now.all.reclaimedBytes -
                               last.all.reclaimedBytes) +
                "," + std::to_string(static_cast<uint64_t>(rss)) + "," +
                std::to_string(static_cast<uint64_t>(live)) + "\n";
            last = now;
        }
    }
}

DaemonSnapshot
DaemonSnapshot::take(const alaska::ConcurrentRelocDaemon &d)
{
    DaemonSnapshot s;
    s.all = d.totals();
    s.stw = d.totalsFor(MechanismKind::Stw);
    s.campaign = d.totalsFor(MechanismKind::Campaign);
    s.passes = d.passes();
    s.defragSec = d.totalDefragSec();
    s.pauseSec = d.totalPauseSec();
    return s;
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Counter deltas of one mechanism over the window (the max fields
 *  are kept as of the window's end). */
DefragStats
delta(const DefragStats &a, const DefragStats &b)
{
    DefragStats d = b;
    d.movedObjects -= a.movedObjects;
    d.movedBytes -= a.movedBytes;
    d.reclaimedBytes -= a.reclaimedBytes;
    d.measuredSec -= a.measuredSec;
    d.attempts -= a.attempts;
    d.committed -= a.committed;
    d.aborted -= a.aborted;
    d.noSpace -= a.noSpace;
    d.graceWaits -= a.graceWaits;
    d.graceWaitSec -= a.graceWaitSec;
    d.barriers -= a.barriers;
    return d;
}

} // namespace

void
addDaemonMetrics(const DaemonSnapshot &before, const DaemonSnapshot &after,
                 double windowSec, const HeapSampler &sampler, Outcome &out)
{
    const DefragStats stw = delta(before.stw, after.stw);
    const DefragStats camp = delta(before.campaign, after.campaign);
    const DefragStats all = delta(before.all, after.all);
    const double pauseSec = after.pauseSec - before.pauseSec;
    const double barriers = static_cast<double>(stw.barriers);
    auto add = [&](const char *name, double value, const char *unit) {
        out.perLayer.push_back({name, value, unit});
    };
    add("stw.barriers", barriers, "count");
    add("stw.pause_mean_us", ratio(pauseSec * 1e6, barriers), "us");
    add("stw.pause_max_us", stw.maxBarrierSec * 1e6, "us");
    add("stw.pause_frac", ratio(pauseSec, windowSec), "ratio");
    add("stw.copy_gbps",
        ratio(static_cast<double>(stw.movedBytes) / 1e9, stw.measuredSec),
        "GB/s");
    const double attempts = static_cast<double>(camp.attempts);
    add("campaign.commit_frac",
        ratio(static_cast<double>(camp.committed), attempts), "ratio");
    add("campaign.abort_frac",
        ratio(static_cast<double>(camp.aborted), attempts), "ratio");
    add("campaign.nospace_frac",
        ratio(static_cast<double>(camp.noSpace), attempts), "ratio");
    add("campaign.copy_gbps",
        ratio(static_cast<double>(camp.movedBytes) / 1e9,
              camp.measuredSec - camp.graceWaitSec),
        "GB/s");
    add("campaign.grace_wait_ms", camp.graceWaitSec * 1e3, "ms");
    add("anchorage.fragmentation_mean", sampler.fragmentationMean(),
        "ratio");
    add("anchorage.reclaimed_mb",
        static_cast<double>(all.reclaimedBytes) / 1e6, "MB");
    add("daemon.passes", static_cast<double>(after.passes - before.passes),
        "count");
    add("daemon.duty_frac",
        ratio(after.defragSec - before.defragSec, windowSec), "ratio");
    add("sim.rss_mb_mean", sampler.rssMbMean(), "MB");
}

void
runProbes(alaska::Runtime &runtime, alaska::serve::Server &server,
          uint64_t liveRecords, uint64_t seed, Outcome &out)
{
    constexpr size_t kKvOps = 20000;
    constexpr size_t kAllocOps = 20000;
    constexpr size_t kDerefObjects = 4096;
    constexpr int kDerefRounds = 200;
    constexpr size_t kIdPairs = 200000;
    Rng rng(mix64(seed) ^ 0x9b0be5ull);
    auto add = [&](const char *name, double value, const char *unit) {
        out.perLayer.push_back({name, value, unit});
    };

    // kv: single gets and sets on live records of the stopped shards,
    // bracketed the way a worker brackets a request.
    Recorder get, set;
    for (size_t i = 0; i < kKvOps; i++) {
        const uint64_t id = 2 * rng.below(liveRecords) + 1;
        const std::string key = alaska::ycsb::Workload::keyFor(id);
        auto &store = server.shard(server.shardOf(id));
        const bool isSet = i % 2 == 1;
        const std::string value = isSet ? server.valueFor(id) : "";
        alaska::poll();
        const uint64_t t0 = clockNs();
        bool ok = true;
        {
            alaska::access_scope scope;
            if (isSet)
                store.set(key, value);
            else
                ok = store.get(key).has_value();
        }
        const uint64_t t1 = clockNs();
        (isSet ? set : get).record(t1 - t0);
        out.attempted++;
        if (!ok)
            out.failed++;
    }
    add("kv.get_p50_ns", get.percentile(50), "ns");
    add("kv.set_p50_ns", set.percentile(50), "ns");

    // translate: one pass of loads over a working set of handles, plain
    // and inside an epoch scope; ns per deref.
    std::vector<void *> handles(kDerefObjects);
    for (size_t i = 0; i < kDerefObjects; i++) {
        handles[i] = runtime.halloc(64);
        const uint64_t v = i;
        std::memcpy(alaska::translate(handles[i]), &v, sizeof(v));
    }
    uint64_t sink = 0;
    auto derefLoop = [&](bool scoped) {
        const uint64_t t0 = clockNs();
        for (int r = 0; r < kDerefRounds; r++) {
            alaska::poll();
            if (scoped) {
                alaska::ConcurrentAccessScope scope;
                for (void *h : handles)
                    sink += *static_cast<const uint64_t *>(
                        alaska::translateScoped(h));
            } else {
                for (void *h : handles)
                    sink += *static_cast<const uint64_t *>(
                        alaska::translate(h));
            }
        }
        return static_cast<double>(clockNs() - t0) /
               static_cast<double>(kDerefObjects * kDerefRounds);
    };
    add("translate.direct_ns", derefLoop(false), "ns");
    add("translate.scoped_ns", derefLoop(true), "ns");
    const uint64_t expectSum =
        2 * static_cast<uint64_t>(kDerefRounds) *
        (kDerefObjects * (kDerefObjects - 1) / 2);
    out.attempted++;
    if (sink != expectSum)
        out.failed++;
    for (void *h : handles)
        runtime.hfree(h);

    // core: single halloc, hrealloc and hfree calls over a mixed-size
    // set, then handle-ID allocate/release pairs.
    Recorder halloc, hrealloc, hfree;
    std::vector<void *> objs(kAllocOps);
    for (auto &h : objs) {
        const size_t size = 16 + rng.below(497);
        alaska::poll();
        const uint64_t t0 = clockNs();
        h = runtime.halloc(size);
        halloc.record(clockNs() - t0);
    }
    for (auto &h : objs) {
        const size_t size = 16 + rng.below(497);
        alaska::poll();
        const uint64_t t0 = clockNs();
        h = runtime.hrealloc(h, size);
        hrealloc.record(clockNs() - t0);
    }
    for (void *h : objs) {
        alaska::poll();
        const uint64_t t0 = clockNs();
        runtime.hfree(h);
        hfree.record(clockNs() - t0);
    }
    add("core.halloc_p50_ns", halloc.percentile(50), "ns");
    add("core.halloc_p99_ns", halloc.percentile(99), "ns");
    add("core.hfree_p50_ns", hfree.percentile(50), "ns");
    add("core.hrealloc_p50_ns", hrealloc.percentile(50), "ns");
    const uint64_t t0 = clockNs();
    for (size_t i = 0; i < kIdPairs; i++)
        runtime.releaseHandleId(runtime.allocateHandleId());
    add("core.handle_id_ns",
        static_cast<double>(clockNs() - t0) / static_cast<double>(kIdPairs),
        "ns");
}

} // namespace perfbench
