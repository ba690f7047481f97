#include "stats.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string
fmt(double v, int prec)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(prec);
    out << v;
    return out.str();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
LogHist::add(double v)
{
    const double x = std::max(v, kMin);
    const std::size_t b =
        static_cast<std::size_t>(std::log(x / kMin) / std::log(kRatio));
    if (b >= buckets_.size())
        buckets_.resize(b + 1, 0);
    ++buckets_[b];
    ++count_;
    sum_ += v;
}

double
LogHist::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        seen += buckets_[b];
        if (static_cast<double>(seen) > rank)
            return kMin * std::pow(kRatio, static_cast<double>(b) + 0.5);
    }
    return kMin * std::pow(kRatio, static_cast<double>(buckets_.size()));
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int
threads_now()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return 0;
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

long
llc_bytes()
{
    long best = 0;
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        std::ifstream size(dir + "/size");
        std::string text;
        if (!(size >> text))
            continue;
        long v = std::atol(text.c_str());
        if (!text.empty() && (text.back() == 'K' || text.back() == 'k'))
            v <<= 10;
        else if (!text.empty() && (text.back() == 'M' || text.back() == 'm'))
            v <<= 20;
        best = std::max(best, v);
    }
    return best;
}

ThreadPlan
thread_plan(const std::string& workload, int cpus)
{
    if (cpus < 1)
        throw std::invalid_argument("thread_plan: no CPUs");
    if (workload == "paper-sweep")
        return {cpus, 0};  // the calling thread is the team's master
    if (workload == "serve-hot" || workload == "serve-churn") {
        if (cpus < 2)
            throw std::invalid_argument(
                "serving workloads need two CPUs: a worker and the client");
        return {cpus - 1, 1};
    }
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::string
result_json(bool correct, unsigned long long attempted,
            unsigned long long failed, const Metrics& m)
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, e] : m.entries) {
        char num[64];
        const double v = std::isfinite(e.value) ? e.value : 0.0;
        std::snprintf(num, sizeof(num), "%.17g", v);
        out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
            << ", \"unit\": \"" << e.unit << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

}  // namespace perfbench
