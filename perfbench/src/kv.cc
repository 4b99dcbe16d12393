/**
 * @file
 * kv-read and kv-write: an open-loop generator drives a 2-worker
 * serve::Server over a fragmented heap while the defrag daemon runs.
 *
 * kv-read (YCSB-B, daemon in concurrent mode) measures get latency at
 * a fixed rate, then climbs a rate ladder for max_rate_rps. kv-write
 * (YCSB-A, daemon in stw mode) measures set latency at a fixed rate
 * with batched barriers running underneath, then its capacity under a
 * burst of requests all due at once.
 */
#include <algorithm>
#include <memory>
#include <thread>

#include "api/api.h"
#include "bench.h"
#include "generator.h"
#include "ladder.h"
#include "recorder.h"
#include "sim/address_space.h"
#include "ycsb/ycsb.h"

namespace perfbench
{

namespace
{

using alaska::serve::OpKind;

constexpr int kWorkers = 2;
/** Episodes per run, each on a freshly built heap; setup_s is the
 *  median of their builds. */
constexpr int kEpisodes = 5;
/** A ladder step is cut into this many slices (see SlicedRecorder). */
constexpr size_t kStepSlices = 10;
/** Requests in kv-write's burst, which measures its capacity. */
constexpr double kBurstRequests = 100000;
/** The start of an episode in which kv-read's first campaign pass,
 *  over the freshly fragmented heap, runs (it takes about 150 ms). */
constexpr uint64_t kFirstPassNs = 400000000;

/** One request's stamps. `done` is written by the worker that
 *  completes it and read after the server drained. */
struct ReqRecord
{
    uint64_t intended = 0;
    uint64_t submitStart = 0;
    uint64_t submitEnd = 0;
    std::atomic<uint64_t> done{0};
    uint32_t queueDepth = 0;
    bool isSet = false;
};

/** The kv heap: Anchorage over real memory, the runtime, the server. */
struct KvSystem
{
    alaska::RealAddressSpace space;
    alaska::anchorage::AnchorageService service{space};
    alaska::Runtime runtime;
    std::unique_ptr<alaska::serve::Server> server;

    KvSystem()
    {
        runtime.attachService(&service);
        alaska::serve::ServerConfig config;
        config.workers = kWorkers;
        server = std::make_unique<alaska::serve::Server>(runtime, config);
    }

    ~KvSystem()
    {
        server->stop();
        {
            alaska::ThreadRegistration reg(runtime);
            server->clearStores();
        }
        server.reset();
    }
};

/** Build the kv heap: load every record, then delete the even ones.
 *  `seconds` is how long that took. */
std::unique_ptr<KvSystem>
buildKv(double &seconds)
{
    const uint64_t t0 = clockNs();
    auto sys = std::make_unique<KvSystem>();
    {
        alaska::ThreadRegistration reg(sys->runtime);
        sys->server->populate(kKvRecords);
        sys->server->fragmentEvenKeys(kKvRecords);
    }
    seconds = static_cast<double>(clockNs() - t0) * 1e-9;
    return sys;
}

/**
 * Drives the server from the calling (unregistered) thread and checks
 * each completion: the op must match and a get on a live key must
 * hit. Requests are logged by id; phases reuse the log.
 */
class Client
{
  public:
    Client(alaska::serve::Server &server, size_t capacity, bool trace)
        : server_(server), log_(new ReqRecord[capacity]),
          capacity_(capacity), trace_(trace)
    {
        server_.setCompletionHandler(
            [this](const alaska::serve::Response &r) { complete(r); });
    }

    /** Offer one schedule; returns when the last request is submitted
     *  (backlogEnd = outstanding at that moment). */
    void
    offer(const std::vector<Arrival> &schedule, uint64_t &backlogStart,
          uint64_t &backlogEnd)
    {
        count_ = std::min(schedule.size(), capacity_);
        for (size_t i = 0; i < count_; i++) {
            log_[i].done.store(0, std::memory_order_relaxed);
            log_[i].isSet = schedule[i].isSet;
        }
        backlogStart = server_.submitted() - server_.completed();
        base_ = clockNs() + 2000000;
        for (size_t i = 0; i < count_; i++) {
            ReqRecord &rec = log_[i];
            rec.intended = base_ + schedule[i].atNs;
            rec.submitStart = waitUntil(rec.intended);
            alaska::serve::Request req;
            req.id = i;
            req.op = rec.isSet ? OpKind::Set : OpKind::Get;
            req.key = schedule[i].key;
            req.intendedNs = rec.intended;
            if (!server_.submit(req))
                refused_++;
            if (trace_) {
                rec.submitEnd = clockNs();
                rec.queueDepth = static_cast<uint32_t>(server_.queueDepth());
            }
        }
        backlogEnd = server_.submitted() - server_.completed();
    }

    /** Wait (bounded) until every accepted request completed. */
    void
    drain()
    {
        const uint64_t deadline = clockNs() + 20000000000ull;
        while (server_.completed() < server_.submitted() &&
               clockNs() < deadline)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    /** Latencies of the last offered phase, by intended arrival slice,
     *  and failure counts. */
    struct Phase
    {
        SlicedRecorder get{0, 1, 0}, set{0, 1, 0}, lag{0, 1, 0};
        Recorder all, submit, depth;
        /** Gets that arrived in the first kFirstPassNs. */
        Recorder firstGet;
        uint64_t firstIntended = 0, lastDone = 0;
        uint64_t lost = 0;
    };

    Phase
    collect(double seconds, size_t slices) const
    {
        Phase p;
        p.firstIntended = base_;
        const uint64_t sliceNs = static_cast<uint64_t>(seconds * 1e9 / slices);
        p.get = SlicedRecorder(base_, sliceNs, slices);
        p.set = SlicedRecorder(base_, sliceNs, slices);
        p.lag = SlicedRecorder(base_, sliceNs, slices);
        for (size_t i = 0; i < count_; i++) {
            const ReqRecord &rec = log_[i];
            const uint64_t done = rec.done.load(std::memory_order_acquire);
            p.lag.record(rec.intended, rec.submitStart - rec.intended);
            if (trace_) {
                p.submit.record(rec.submitEnd - rec.submitStart);
                p.depth.record(rec.queueDepth);
            }
            if (done == 0) {
                p.lost++;
                continue;
            }
            const uint64_t lat = done > rec.intended ? done - rec.intended : 0;
            (rec.isSet ? p.set : p.get).record(rec.intended, lat);
            if (!rec.isSet && rec.intended - base_ < kFirstPassNs)
                p.firstGet.record(lat);
            p.all.record(lat);
            p.lastDone = std::max(p.lastDone, done);
        }
        return p;
    }

    /** Copy of the last phase's stamps as CSV, for the trace file. */
    std::string
    spansCsv() const
    {
        std::string s = "id,op,intended_ns,submit_start_ns,submit_end_ns,"
                        "done_ns,queue_depth\n";
        for (size_t i = 0; i < count_; i++) {
            const ReqRecord &rec = log_[i];
            s += std::to_string(i) + (rec.isSet ? ",set," : ",get,") +
                 std::to_string(rec.intended) + "," +
                 std::to_string(rec.submitStart) + "," +
                 std::to_string(rec.submitEnd) + "," +
                 std::to_string(rec.done.load(std::memory_order_acquire)) +
                 "," + std::to_string(rec.queueDepth) + "\n";
        }
        return s;
    }

    uint64_t wrong() const { return wrong_.load(); }
    uint64_t refused() const { return refused_; }

  private:
    static uint64_t
    waitUntil(uint64_t deadline)
    {
        constexpr uint64_t kSpinNs = 150000;
        uint64_t now = clockNs();
        if (now + kSpinNs < deadline)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(deadline - now - kSpinNs));
        while ((now = clockNs()) < deadline) {
        }
        return now;
    }

    void
    complete(const alaska::serve::Response &r)
    {
        const uint64_t now = clockNs();
        if (r.id >= count_) {
            wrong_++;
            return;
        }
        ReqRecord &rec = log_[r.id];
        const OpKind expected = rec.isSet ? OpKind::Set : OpKind::Get;
        if (r.op != expected || (expected == OpKind::Get && !r.hit))
            wrong_++;
        if (rec.done.exchange(now, std::memory_order_acq_rel) != 0)
            wrong_++;
    }

    alaska::serve::Server &server_;
    std::unique_ptr<ReqRecord[]> log_;
    size_t capacity_;
    bool trace_;
    size_t count_ = 0;
    /** When the last offered schedule began. */
    uint64_t base_ = 0;
    std::atomic<uint64_t> wrong_{0};
    uint64_t refused_ = 0;
};

/** After the run, with the server stopped and no daemon: every odd
 *  record holds its value, every even record is absent. */
uint64_t
verifyStores(alaska::serve::Server &server)
{
    uint64_t bad = 0;
    for (uint64_t id = 0; id < kKvRecords; id++) {
        alaska::access_scope scope;
        const auto value =
            server.shard(server.shardOf(id))
                .get(alaska::ycsb::Workload::keyFor(id));
        if (id % 2 == 1 ? value != server.valueFor(id) : value.has_value())
            bad++;
    }
    return bad;
}

void
addServeMetrics(const Client::Phase &p, uint64_t completed, uint64_t steals,
                uint64_t submitted, uint64_t backpressure, Outcome &out)
{
    const auto frac = [](uint64_t a, uint64_t b) {
        return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    out.perLayer.push_back(
        {"serve.submit_p99_us", p.submit.percentile(99) / 1e3, "us"});
    out.perLayer.push_back(
        {"serve.steal_frac", frac(steals, completed), "ratio"});
    out.perLayer.push_back(
        {"serve.queue_depth_p99", p.depth.percentile(99), "count"});
    out.perLayer.push_back(
        {"serve.backpressure_frac", frac(backpressure, submitted), "ratio"});
    out.perLayer.push_back(
        {"gen.lag_p99_us", p.lag.percentile(99) / 1e3, "us"});
}

struct KvSpec
{
    bool read;
    alaska::anchorage::DefragMode mode;
    double setFraction;
    double rateRps;
    /** Slices of an episode's window; p50 and p99 are medians over
     *  them (see SlicedRecorder). 1 keeps the window whole. */
    size_t slices;
};

/** One episode's end-to-end figures. */
struct Episode
{
    double setupSec = 0;
    double rssPerLive = 0;
    double p50Us = 0;
    double p99Us = 0;
    /** Get p99 in the first kFirstPassNs of the window. */
    double firstPassGetP99Us = 0;
    /** kv-write's burst capacity; kv-read's ladder result in its last
     *  episode, 0 in the others. */
    double throughput = 0;
};

/**
 * One episode: build the heap, run the fixed-rate phase with the
 * daemon underneath, then kv-write's burst or, in kv-read's last
 * episode, the ladder; stop, verify every record and, in the last
 * episode of a traced run, run the probe phase. Counts and per-layer
 * metrics go to `out`; the printed figures are named with `label` in
 * front.
 */
Episode
runEpisode(const Options &opt, const KvSpec &spec, double seconds,
           uint64_t seed, const std::string &label, bool last, Outcome &out)
{
    Episode ep;
    const auto sysOwner = buildKv(ep.setupSec);
    KvSystem &sys = *sysOwner;
    auto &server = *sys.server;
    const Zipfian zipf(kKvRecords / 2, 0.99);
    const bool probe = opt.trace && last;
    const bool climb = spec.read && last;

    ScheduleConfig sc;
    sc.seed = seed;
    sc.ratePerSec = spec.rateRps;
    sc.seconds = seconds;
    sc.setFraction = spec.setFraction;
    sc.liveKeys = kKvRecords / 2;
    const std::vector<Arrival> fixed = makeSchedule(sc, zipf);

    // kv-write's burst: the same mix, every arrival due at once, so the
    // submitter runs into backpressure and the server works flat out.
    std::vector<Arrival> burst;
    if (!spec.read) {
        ScheduleConfig bc = sc;
        bc.seed = mix64(seed) ^ 0xb0257ull;
        bc.seconds = kBurstRequests / sc.ratePerSec;
        burst = makeSchedule(bc, zipf);
        for (Arrival &a : burst)
            a.atNs = 0;
    }

    alaska::anchorage::ControlParams params;
    params.mode = spec.mode;
    auto daemon = std::make_unique<alaska::ConcurrentRelocDaemon>(
        sys.runtime, sys.service, params);
    // A ladder step lasts a tenth of the whole run's window.
    const double stepSec = opt.seconds / 10;
    const size_t ladderCapacity =
        climb ? static_cast<size_t>(ladder::kMaxRps * stepSec * 1.1) : 0;
    Client client(server,
                  std::max({fixed.size(), burst.size(), ladderCapacity}),
                  opt.trace);
    server.start();
    daemon->start();

    // Fixed-rate phase: the latency, memory and per-layer window.
    HeapSampler sampler(sys.service, *daemon, opt.trace);
    const DaemonSnapshot d0 = DaemonSnapshot::take(*daemon);
    const uint64_t steals0 = server.steals(), bp0 = server.backpressureWaits();
    const uint64_t sub0 = server.submitted(), done0 = server.completed();
    const uint64_t w0 = clockNs();
    uint64_t b0 = 0, b1 = 0;
    client.offer(fixed, b0, b1);
    client.drain();
    const double windowSec = static_cast<double>(clockNs() - w0) * 1e-9;
    sampler.stop();
    const DaemonSnapshot d1 = DaemonSnapshot::take(*daemon);
    const Client::Phase phase = client.collect(seconds, spec.slices);
    out.attempted += fixed.size();
    out.failed += phase.lost;
    if (probe) {
        out.traceText += "# requests (fixed-rate phase)\n" + client.spansCsv();
        out.traceText += "# daemon windows (100 ms)\n" + sampler.windows();
        addServeMetrics(phase, server.completed() - done0,
                        server.steals() - steals0, server.submitted() - sub0,
                        server.backpressureWaits() - bp0, out);
        addDaemonMetrics(d0, d1, windowSec, sampler, out);
    }

    if (!burst.empty()) {
        client.offer(burst, b0, b1);
        client.drain();
        const Client::Phase p = client.collect(seconds, 1);
        out.attempted += burst.size();
        out.failed += p.lost;
        ep.throughput = static_cast<double>(p.all.count()) /
                        (static_cast<double>(p.lastDone - p.firstIntended) *
                         1e-9);
    }

    if (climb) {
        std::vector<StepResult> steps;
        int stepIndex = 0;
        ep.throughput = climbLadder(
            [&](double rate) {
                ScheduleConfig step = sc;
                step.seed = mix64(seed) + static_cast<uint64_t>(++stepIndex);
                step.ratePerSec = rate;
                step.seconds = stepSec;
                const std::vector<Arrival> s = makeSchedule(step, zipf);
                StepResult r;
                r.rateRps = rate;
                client.offer(s, r.backlogStart, r.backlogEnd);
                client.drain();
                const Client::Phase p = client.collect(stepSec, kStepSlices);
                r.getP99Us = p.get.percentile(99) / 1e3;
                r.lagP99Us = p.lag.percentile(99) / 1e3;
                out.attempted += s.size();
                out.failed += p.lost;
                return r;
            },
            steps);
        for (const StepResult &s : steps) {
            const std::string step =
                "ladder_" + std::to_string(static_cast<long>(s.rateRps));
            out.info.insert(
                out.info.end(),
                {{step + ".get_p99_us", s.getP99Us, "us"},
                 {step + ".lag_p99_us", s.lagP99Us, "us"},
                 {step + ".backlog_growth",
                  static_cast<double>(s.backlogEnd) -
                      static_cast<double>(s.backlogStart),
                  "count"}});
        }
    }

    server.stop();
    daemon->stop();
    daemon.reset();
    out.failed += client.wrong() + client.refused();
    {
        alaska::ThreadRegistration reg(sys.runtime);
        out.attempted += kKvRecords;
        out.failed += verifyStores(server);
        if (probe)
            runProbes(sys.runtime, server, kKvRecords / 2, seed, out);
    }

    const SlicedRecorder &headline = spec.read ? phase.get : phase.set;
    ep.rssPerLive = sampler.rssPerLiveMean();
    ep.p50Us = headline.percentile(50) / 1e3;
    ep.p99Us = headline.percentile(99) / 1e3;
    ep.firstPassGetP99Us = phase.firstGet.percentile(99) / 1e3;
    std::vector<Metric> info = {
        {"get_p50_us", phase.get.percentile(50) / 1e3, "us"},
        {"get_p99_us", phase.get.percentile(99) / 1e3, "us"},
        {"get_samples", static_cast<double>(phase.get.total().count()),
         "count"},
        {"set_p50_us", phase.set.percentile(50) / 1e3, "us"},
        {"set_p99_us", phase.set.percentile(99) / 1e3, "us"},
        {"set_samples", static_cast<double>(phase.set.total().count()),
         "count"},
        {"gen_lag_p99_us", phase.lag.percentile(99) / 1e3, "us"},
        {"heap_rss_per_live", ep.rssPerLive, "ratio"},
    };
    if (spec.read)
        info.push_back({"first_pass_get_p99_us", ep.firstPassGetP99Us, "us"});
    else
        info.push_back({"burst_completed_per_s", ep.throughput, "1/s"});
    for (const Metric &m : info)
        out.info.push_back({label + m.name, m.value, m.unit});
    if (climb)
        out.info.push_back({"max_rate_rps", ep.throughput, "1/s"});
    return ep;
}

Outcome
runKv(const Options &opt, const KvSpec &spec)
{
    Outcome out;
    std::vector<double> setup, rss, p50, p99, firstPass, throughput;
    for (int e = 0; e < kEpisodes; e++) {
        const bool last = e + 1 == kEpisodes;
        const Episode ep =
            runEpisode(opt, spec, opt.seconds / kEpisodes,
                       mix64(opt.seed) + static_cast<uint64_t>(e),
                       "episode" + std::to_string(e + 1) + ".", last, out);
        setup.push_back(ep.setupSec);
        rss.push_back(ep.rssPerLive);
        p50.push_back(ep.p50Us);
        p99.push_back(ep.p99Us);
        firstPass.push_back(ep.firstPassGetP99Us);
        if (!spec.read || last)
            throughput.push_back(ep.throughput);
    }
    out.endToEnd = {
        {"setup_s", median(setup), "s"},
        {"heap_rss_per_live", median(rss), "ratio"},
        {"p50_us", median(p50), "us"},
        {"p99_us", median(p99), "us"},
        {"throughput_per_s", median(throughput), "1/s"},
    };
    // Readers' latency while a campaign pass compacts the heap; 0 on
    // kv-write, where no campaign runs.
    const double campaignGetP99 = spec.read ? median(firstPass) : 0;
    if (spec.read)
        out.info.push_back({"first_pass_get_p99_us", campaignGetP99, "us"});
    if (opt.trace)
        out.perLayer.push_back({"campaign.get_p99_us", campaignGetP99, "us"});
    return out;
}

} // namespace

// Both kv workloads split the window into kEpisodes episodes, each on
// a freshly built and fragmented heap, and report the median episode.
//
// kv-write's latency is taken over each episode's whole window: its
// stop-the-world compaction runs as a burst of barriers over the first
// seconds of an episode, and its p99 sits inside that burst.
//
// kv-read's p50 and p99 are medians over 16 slices of each episode
// (125 ms at --seconds 10), because a whole-window p99 there is
// decided by host stalls. Its daemon works in short campaign passes
// that a slice median hides, so the first pass of each episode, which
// compacts the freshly fragmented heap, gets its own figure: the get
// p99 over the episode's first 400 ms (campaign.get_p99_us).
//
// kv-read's fixed rate, 100k req/s, is about a sixth of its measured
// max_rate_rps (median near 600k req/s on a 4-vCPU host), so its
// latency is service time plus the daemon's interference, not
// saturation queueing.
Outcome
runKvRead(const Options &opt)
{
    return runKv(opt, {true, alaska::anchorage::DefragMode::Concurrent, 0.05,
                       100000, 16});
}

Outcome
runKvWrite(const Options &opt)
{
    return runKv(opt, {false, alaska::anchorage::DefragMode::StopTheWorld,
                       0.5, 20000, 1});
}

} // namespace perfbench
