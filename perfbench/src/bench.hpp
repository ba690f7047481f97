/// \file
/// The workloads' common configuration and result types.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string data_dir;       ///< where `perfbench gen` wrote the .tns files
    int cpus = 1;
};

struct WorkloadResult {
    Metrics e2e;    ///< end-to-end metrics (untraced timing)
    Metrics layer;  ///< per-layer metrics (traced run)
    std::vector<std::string> failures;  ///< failed correctness checks
    unsigned long long attempted = 0;
    unsigned long long failed = 0;
    std::string table;     ///< per-layer table (traced run)
    std::string notes;     ///< sizes and counts worth printing
    int max_threads = 0;   ///< most threads seen during the timed phase
};

/// The seed-derived stream of paper-sweep tensor `i` (also used by gen).
inline std::uint64_t
paper_tensor_seed(std::uint64_t seed, std::size_t i)
{
    return mix_seed(seed, 0xA0 + i);
}

WorkloadResult run_paper(const RunConfig& cfg);
WorkloadResult run_serving(const RunConfig& cfg, bool churn);

}  // namespace perfbench
