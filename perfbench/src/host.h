/**
 * @file
 * The host stamp every result carries: nproc, CPU model, compiler,
 * build type and the telemetry level the program was compiled with.
 * The CPU model comes from the CPUID brand string, so stamping reads
 * no file.
 */
#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <sched.h>

#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "telemetry/telemetry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

inline std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max = 0, b = 0, c = 0, d = 0;
    __cpuid(0x80000000u, max, b, c, d);
    if (max >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; leaf++)
            __cpuid(0x80000002u + leaf, regs[leaf * 4], regs[leaf * 4 + 1],
                    regs[leaf * 4 + 2], regs[leaf * 4 + 3]);
        std::string brand(reinterpret_cast<const char *>(regs), sizeof(regs));
        brand = brand.c_str();
        const size_t first = brand.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : brand.substr(first);
    }
#endif
    return "unknown";
}

/** CPUs this process may run on, as nproc counts them. */
inline int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

/** The host stamp as one JSON object. */
inline std::string
hostJson()
{
    std::string cpu;
    for (char ch : cpuModel())
        if (ch != '"' && ch != '\\')
            cpu += ch;
    return std::string("{\"nproc\": ") +
           std::to_string(nproc()) +
           ", \"cpu\": \"" + cpu + "\", \"compiler\": \"" +
#if defined(__clang__)
           "clang " __clang_version__
#elif defined(__GNUC__)
           "gcc " __VERSION__
#else
           "unknown"
#endif
           + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
             "\", \"telemetry_level\": " +
           std::to_string(ALASKA_TELEMETRY_LEVEL) + "}";
}

} // namespace perfbench

#endif // PERFBENCH_HOST_H
