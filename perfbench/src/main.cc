/**
 * @file
 * perfbench: the repository benchmark's one binary.
 *
 *   perfbench --workload kv-read|kv-write|alloc-churn --seed N
 *             --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Prints the host stamp and every metric by name and unit, then, as
 * the last line, one JSON object {correct, attempted, failed,
 * metrics}: the end-to-end metrics with --trace 0, the per-layer ones
 * with --trace 1. Exits 1 if any operation failed or any output was
 * wrong, 2 on bad arguments.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "host.h"

namespace
{

using perfbench::Metric;

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); i++) {
        if (i)
            s += ", ";
        s += "\"" + metrics[i].name + "\": {\"value\": " +
             number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
    return s + "}";
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload kv-read|kv-write|alloc-churn "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            opt.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--trace-out")
            opt.traceOut = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(opt.seconds > 0 && opt.seconds <= 120))
        return usage();

    perfbench::Outcome out;
    if (opt.workload == "kv-read")
        out = perfbench::runKvRead(opt);
    else if (opt.workload == "kv-write")
        out = perfbench::runKvWrite(opt);
    else if (opt.workload == "alloc-churn")
        out = perfbench::runAllocChurn(opt);
    else
        return usage();

    if (opt.trace && !opt.traceOut.empty()) {
        std::ofstream file(opt.traceOut);
        file << out.traceText;
        if (!file)
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
    }

    const bool correct = out.failed == 0;
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("host %s\n", perfbench::hostJson().c_str());
    printTable("end-to-end:", out.endToEnd);
    printTable("details:", out.info);
    if (opt.trace)
        printTable("per-layer:", out.perLayer);
    std::printf("failed_frac %.6g (%llu of %llu)\n",
                static_cast<double>(out.failed) /
                    static_cast<double>(out.attempted ? out.attempted : 1),
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    // The traced run's own end-to-end figures, for the overhead.
    if (opt.trace)
        std::printf("traced_end_to_end %s\n", metricsJson(out.endToEnd).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metricsJson(opt.trace ? out.perLayer : out.endToEnd).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
