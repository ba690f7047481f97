/// \file
/// Performance-efficiency accounting (paper §V-C, Observations 1-3).
///
/// Efficiency (the paper's "performance efficiency" / "bandwidth
/// efficiency") is measured GFLOPS over the kernel's Roofline performance
/// on the platform — OI x ERT-DRAM bandwidth.  Values above 100% are
/// legitimate and diagnostic: the working set fit in cache (Observation 2).
#pragma once

#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "roofline/machine.hpp"

namespace pasta {

/// One measured kernel execution on one tensor.
struct MeasuredRun {
    std::string tensor_id;
    Kernel kernel = Kernel::kTew;
    Format format = Format::kCoo;
    double seconds = 0;        ///< mean kernel time
    KernelCost cost;           ///< Table I work/traffic for this tensor
    /// Observability channel, from the metrics registry: the variant
    /// label the kernel reported and the trial's counter-derived
    /// flop/byte totals (zero for journal rows written without them).
    std::string variant;
    double obs_flops = 0;
    double obs_bytes = 0;
    /// Peak bytes the memory governor saw reserved/probed during the
    /// trial (0 when the trial predates the governor or never touched a
    /// budgeted allocation).  Feeds the mem_peak CSV column.
    double mem_peak = 0;
};

/// Measured GFLOPS of a run.
double run_gflops(const MeasuredRun& run);

/// Roofline GFLOPS of a run on `spec` (OI x ERT-DRAM bandwidth).
double run_roofline_gflops(const MeasuredRun& run, const MachineSpec& spec);

/// Efficiency of a run on `spec`, as a fraction (1.0 = 100%).
double run_efficiency(const MeasuredRun& run, const MachineSpec& spec);

/// Arithmetic intensity of a run: the counter-derived ratio
/// obs_flops/obs_bytes when the run carries them, else the Table I
/// model's OI.  Counter totals accumulate over warmups and repeats, but
/// AI is a ratio and therefore repetition-invariant.
double run_ai(const MeasuredRun& run);

/// Percent of the Roofline ceiling achieved at run_ai(run): measured
/// GFLOPS over min(peak, AI x ERT-DRAM bandwidth), x100.  Zero when the
/// run carries no usable AI or time.
double run_roofline_pct(const MeasuredRun& run, const MachineSpec& spec);

/// Aggregate statistics the paper's observations quote.
struct EfficiencySummary {
    Kernel kernel = Kernel::kTew;
    Format format = Format::kCoo;
    double mean_gflops = 0;
    double min_gflops = 0;
    double max_gflops = 0;
    double mean_efficiency = 0;
    std::size_t runs = 0;
};

/// Summarizes all runs of one (kernel, format) pair on `spec`.
EfficiencySummary summarize(const std::vector<MeasuredRun>& runs,
                            Kernel kernel, Format format,
                            const MachineSpec& spec);

}  // namespace pasta
