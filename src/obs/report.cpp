#include "obs/report.hpp"

#include "roofline/roofline.hpp"

namespace pasta::obs {

double
delta_suffix_sum(const metrics::MetricsSnapshot& before,
                 const metrics::MetricsSnapshot& after,
                 const std::string& suffix)
{
    double sum = 0;
    for (const auto& [name, total] : after.counters) {
        if (!name.ends_with(suffix))
            continue;
        const std::uint64_t base = before.counter(name);
        if (total > base)
            sum += static_cast<double>(total - base);
    }
    return sum;
}

std::string
window_label(const metrics::MetricsSnapshot& before,
             const metrics::MetricsSnapshot& after, const std::string& key)
{
    const std::string prefix = metrics::label_name(key, "");
    for (auto it = after.counters.lower_bound(prefix);
         it != after.counters.end() && it->first.starts_with(prefix); ++it)
        if (it->second > before.counter(it->first))
            return metrics::last_label(key);
    return std::string();
}

double
roofline_pct(double measured_gflops, double ai, const MachineSpec& spec)
{
    if (measured_gflops <= 0 || ai <= 0)
        return 0.0;
    const double roof = roofline_performance_gflops(spec, ai);
    return roof > 0 ? 100.0 * measured_gflops / roof : 0.0;
}

}  // namespace pasta::obs
