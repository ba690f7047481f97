/// \file
/// perfbench: the repository benchmark's driver binary.
///
///   perfbench gen --seed S --out DIR
///       writes the paper-sweep tensors as DIR/<name>.tns
///   perfbench run --workload W --seed S --seconds T --trace 0|1 --data DIR
///                 [--sha GIT_SHA]
///       runs one workload and ends with one JSON result line
///
/// perfbench/run.py builds this binary and calls both commands; a traced
/// run of one workload is followed by a short traced run of another, in a
/// process of its own, for the layers the first does not exercise.  See
/// perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"
#include "simd/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::map<std::string, std::string>
parse_flags(int argc, char** argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("expected --flag value, got '" + key + "'");
        flags[key.substr(2)] = argv[++i];
    }
    return flags;
}

std::string
need(const std::map<std::string, std::string>& flags, const std::string& key)
{
    const auto it = flags.find(key);
    if (it == flags.end())
        throw std::invalid_argument("missing --" + key);
    return it->second;
}

int
gen(const std::map<std::string, std::string>& flags)
{
    const std::uint64_t seed = std::stoull(need(flags, "seed"));
    const std::string out = need(flags, "out");
    const auto specs = paper_specs();
    for (std::size_t i = 0; i < specs.size(); ++i)
        write_tns(out + "/" + specs[i].name + ".tns",
                  generate(specs[i], paper_tensor_seed(seed, i)));
    return 0;
}

int
run(const std::map<std::string, std::string>& flags)
{
    RunConfig cfg;
    cfg.workload = need(flags, "workload");
    cfg.seed = std::stoull(need(flags, "seed"));
    cfg.seconds = std::stod(need(flags, "seconds"));
    cfg.trace = need(flags, "trace") == "1";
    cfg.data_dir = flags.count("data") ? flags.at("data") : ".";
    cfg.cpus = nproc();
    const std::string sha = flags.count("sha") ? flags.at("sha") : "unknown";
    if (cfg.workload != "paper-sweep" && cfg.workload != "serve-hot" &&
        cfg.workload != "serve-churn")
        throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
    const ThreadPlan plan = thread_plan(cfg.workload, cfg.cpus);

    std::printf("perfbench: workload %s seed %llu seconds %g trace %d\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.trace ? 1 : 0);
    std::printf("stamp: git %s, build %s, simd %s, threads %d program + %d client, "
                "nproc %d, LLC %ld MiB\n",
                sha.c_str(), PERFBENCH_BUILD_TYPE,
                pasta::simd::isa_name(pasta::simd::active_isa()), plan.program,
                plan.loadgen, cfg.cpus, llc_bytes() >> 20);
    std::fflush(stdout);

    WorkloadResult res = cfg.workload == "paper-sweep"
                             ? run_paper(cfg)
                             : run_serving(cfg, cfg.workload == "serve-churn");
    if (res.max_threads > cfg.cpus)
        res.failures.push_back("thread budget: " + std::to_string(res.max_threads) +
                               " threads seen, nproc " + std::to_string(cfg.cpus));
    std::printf("%s", res.notes.c_str());
    std::printf("threads seen in the timed phase: %d (nproc %d)\n", res.max_threads, cfg.cpus);
    std::printf("%s", res.table.c_str());
    for (const auto& f : res.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("%s\n", result_json(res.failures.empty(), res.attempted, res.failed,
                                     cfg.trace ? res.layer : res.e2e)
                            .c_str());
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        if (argc < 2)
            throw std::invalid_argument("usage: perfbench gen|run --flag value ...");
        const std::string cmd = argv[1];
        const auto flags = parse_flags(argc, argv);
        if (cmd == "gen")
            return gen(flags);
        if (cmd == "run")
            return run(flags);
        throw std::invalid_argument("unknown command '" + cmd + "'");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
