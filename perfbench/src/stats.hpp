/// \file
/// Clocks, order statistics, host facts and the metric sink.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall seconds one call of `f` takes.
template <typename F>
double
time_s(F&& f)
{
    const auto t0 = Clock::now();
    f();
    return seconds_since(t0);
}

/// Fixed-point text of `v` with `prec` decimals, for the tables.
std::string fmt(double v, int prec = 3);

/// Linear-interpolated quantile q in [0, 1] (numpy's default); 0 when
/// `v` is empty.  Takes a copy: callers keep their sample order.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Log-bucketed histogram of positive values with 0.05% relative
/// resolution: fixed memory whatever the sample count, so a long run's
/// latency record does not grow the resident set it reports.
class LogHist {
  public:
    void add(double v);
    std::size_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0; }
    /// The q-quantile, as the geometric middle of its bucket.
    double quantile(double q) const;

  private:
    static constexpr double kRatio = 1.0005;
    static constexpr double kMin = 1e-6;  // values below clamp to kMin
    std::vector<std::uint64_t> buckets_;
    std::size_t count_ = 0;
    double sum_ = 0;
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();
/// Threads in this process right now (/proc/self/status).
int threads_now();
/// CPUs this process may run on.
int nproc();
/// Last-level cache size in bytes (sysfs), 0 when unknown.
long llc_bytes();

/// Threads a workload may start: the program's own plus the load
/// generator's.  Their sum never exceeds `cpus`.
struct ThreadPlan {
    int program = 0;   ///< OpenMP team or serving workers
    int loadgen = 0;   ///< closed-loop client threads
};
/// The plan for "paper-sweep", "serve-hot" or "serve-churn".  Serving
/// needs at least two CPUs (one worker plus the client); throws otherwise.
ThreadPlan thread_plan(const std::string& workload, int cpus);

/// Named metrics with units, printed in insertion-independent order.
struct Metrics {
    struct Entry {
        double value = 0;
        std::string unit;
    };
    std::map<std::string, Entry> entries;

    void set(const std::string& name, double value, const std::string& unit)
    {
        entries[name] = {value, unit};
    }
};

/// One JSON result object: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},..}} with every digit of v.
std::string result_json(bool correct, unsigned long long attempted,
                        unsigned long long failed, const Metrics& m);

}  // namespace perfbench
