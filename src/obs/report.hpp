/// \file
/// Efficiency reporting: joins metrics-registry counters with measured
/// runtimes and the Roofline machine model (paper §V-C).
///
/// The bench harness snapshots the registry around each trial; the deltas
/// give the trial's model-derived flops and bytes, whose ratio is the
/// counter-derived arithmetic intensity.  AI is a ratio, so it is
/// invariant to how many warmups/runs the trial performed — no
/// normalization by run counts is needed.  Combined with the measured
/// GFLOPS (from the Table I cost model and the timed seconds) it yields
/// the "% of roofline" column the suite CSVs carry.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "roofline/machine.hpp"

namespace pasta::obs {

/// Sum of (after - before) over every counter whose name ends in
/// `suffix` (".flops", ".bytes").  Counters absent from `before`
/// contribute their full `after` value.
double delta_suffix_sum(const metrics::MetricsSnapshot& before,
                        const metrics::MetricsSnapshot& after,
                        const std::string& suffix);

/// The decision label `key` as a window took it: metrics::last_label(key)
/// when some "<key>=<value>" counter grew between the snapshots, ""
/// when the window made no such decision.
std::string window_label(const metrics::MetricsSnapshot& before,
                         const metrics::MetricsSnapshot& after,
                         const std::string& key);

/// Percent of the Roofline ceiling achieved: 100 x measured GFLOPS over
/// the platform's attainable performance at arithmetic intensity `ai`
/// (min of peak compute and ai x ERT-DRAM bandwidth).  Returns 0 when
/// any input is degenerate.
double roofline_pct(double measured_gflops, double ai,
                    const MachineSpec& spec);

}  // namespace pasta::obs
