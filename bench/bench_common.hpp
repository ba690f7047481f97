/// \file
/// Shared machinery for the table/figure benchmark binaries.
///
/// Every figure binary (Figs. 4-7) runs the same protocol the paper
/// describes in §V-A2: each kernel five times (configurable), the mean
/// taken, and TTV/TTM/MTTKRP additionally averaged across all tensor
/// modes; TEW uses addition and TS multiplication as representatives,
/// R = 16, HiCOO block size 128.
///
/// A full campaign is hundreds of trials per binary, so the suites run
/// through the src/harness robustness layer: every (tensor, kernel,
/// format) trial executes under a watchdog/retry guard
/// (harness::run_guarded_trial), failures are collected instead of
/// propagated, and completed trials are checkpointed to a JSONL journal
/// under the cache dir so a killed run resumes where it left off.
#pragma once

#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "analysis/efficiency.hpp"
#include "gen/datasets.hpp"
#include "gpusim/timing_model.hpp"
#include "harness/trial.hpp"
#include "roofline/machine.hpp"

namespace pasta::bench {

/// Global options, overridable through environment variables:
///   PASTA_SCALE          dataset scale (fraction of paper nnz), 5e-4
///   PASTA_RUNS           timed repetitions per kernel, default 3
///   PASTA_CACHE          dataset cache dir, default ".pasta_cache"
///   PASTA_TRIAL_TIMEOUT  per-trial watchdog seconds (0 = inline, no
///                        watchdog; defaults to 60 when PASTA_FAULT
///                        contains a hang rule)
///   PASTA_TRIAL_RETRIES  attempts per trial (default 3)
///   PASTA_JOURNAL        "0" disables checkpoint/resume journaling
///   PASTA_VALIDATE       off|convert|kernel|full structural and
///                        differential checking (see src/validate)
///   PASTA_TRACE          off|spans: spans feed the Chrome trace (see
///                        src/obs).  The obs_* CSV/journal columns need
///                        no switch: kernel counters are always recorded
///   PASTA_TRACE_DIR      where trace.json/spans.jsonl land (falls back
///                        to PASTA_CSV_DIR, then ".")
///   PASTA_METRICS        <path>[,interval_ms] live metrics heartbeat:
///                        a background thread appends one JSON snapshot
///                        of the always-on metrics registry (counters,
///                        gauges, latency histograms) per interval
///                        (default 1000 ms) — tail it mid-run or render
///                        with scripts/metrics_summary.py
///   PASTA_MEM_BYTES      memory budget (suffixes K/M/G accepted) armed
///                        into the src/common/membudget governor: trials
///                        whose working set would exceed it degrade to
///                        the out-of-core streaming kernels (src/core/
///                        stream) and retry instead of dying
/// Malformed numeric values throw PastaError instead of silently
/// producing 0 runs or undefined behavior.
struct BenchOptions {
    double scale = 5e-4;
    std::size_t runs = 3;
    Size rank = 16;                  ///< paper §V-A2
    unsigned block_bits = 7;         ///< HiCOO B = 128
    std::string cache_dir = ".pasta_cache";
    std::string journal_stem;        ///< figure binaries set this; empty
                                     ///< disables journaling
    bool journal_enabled = true;     ///< PASTA_JOURNAL != "0"
    harness::TrialPolicy trial_policy;
};

/// Reads BenchOptions from the environment (validating numeric values),
/// applies $PASTA_LOG, and arms fault injection from $PASTA_FAULT.
BenchOptions options_from_env();

/// One trial (or whole tensor, kernel "*") that failed or was skipped.
struct TrialFailure {
    std::string tensor_id;
    std::string kernel;   ///< kernel_name() or "*" for a whole tensor
    std::string format;   ///< format_name() or "*"
    std::string error;
    bool timed_out = false;
    int attempts = 0;
    std::string failure_class;  ///< "timeout", "validation", "oom", or
                                ///< "error"
};

/// Partial results of a suite: successful measurements plus a failure
/// summary; skipped trials never abort the campaign.
struct SuiteResult {
    std::vector<MeasuredRun> runs;
    std::vector<TrialFailure> failures;
    std::size_t resumed = 0;  ///< trials restored from the journal

    bool complete() const { return failures.empty(); }
};

/// Loads (generating + caching as needed) the full 30-tensor Table II
/// suite at the configured scale.  Unloadable tensors are skipped with
/// a warning after retries rather than aborting the suite.
std::vector<NamedTensor> load_suite(const BenchOptions& options);

/// Measures all five kernels x {COO, HiCOO} on the host CPU for every
/// tensor; one MeasuredRun per (tensor, kernel, format), times averaged
/// over runs and modes.  Failed/hung trials land in `failures`.
SuiteResult run_cpu_suite(const std::vector<NamedTensor>& suite,
                          const BenchOptions& options);

/// Same protocol on the simulated GPU: kernels execute through the SIMT
/// simulator and seconds come from the analytical device timing model.
SuiteResult run_gpu_suite(const std::vector<NamedTensor>& suite,
                          const gpusim::DeviceSpec& device,
                          const BenchOptions& options);

/// Prints one paper-figure block: per kernel, the GFLOPS series over all
/// tensors for COO and HiCOO plus the red "Roofline performance" line.
/// Missing series cells (skipped trials) render as "skip".
void print_figure(const std::string& title,
                  const std::vector<MeasuredRun>& runs,
                  const MachineSpec& platform);

/// Prints the Observation 1/3-style per-kernel averages.
void print_averages(const std::vector<MeasuredRun>& runs,
                    const MachineSpec& platform);

/// Prints resumed-trial count and the skipped/failed-trial table; "all
/// trials completed" when the suite is complete.
void print_failure_summary(const SuiteResult& result);

/// Writes the full run series as CSV (tensor, kernel, format, seconds,
/// gflops, roofline_gflops, efficiency, variant, obs_flops, obs_bytes,
/// obs_ai, roofline_pct, mem_peak) for external plotting.  variant and
/// obs_* come from the trial's metrics-registry deltas (always recorded);
/// roofline_pct falls back to the Table I model's OI for a run without
/// them.  Figure binaries call this automatically when PASTA_CSV_DIR is
/// set.
void export_csv(const std::string& path,
                const std::vector<MeasuredRun>& runs,
                const MachineSpec& platform);

/// Writes the failure summary as CSV (tensor, kernel, format, class,
/// timed_out, attempts, error), where class is "timeout", "validation",
/// "oom", or "error".
void export_failures_csv(const std::string& path,
                         const std::vector<TrialFailure>& failures);

/// Exports to $PASTA_CSV_DIR/<stem>.csv when the variable is set.
void maybe_export_csv(const std::string& stem,
                      const std::vector<MeasuredRun>& runs,
                      const MachineSpec& platform);

/// SuiteResult convenience: <stem>.csv for successful trials and (when
/// any exist) <stem>_failures.csv for the failure summary.
void maybe_export_csv(const std::string& stem, const SuiteResult& result,
                      const MachineSpec& platform);

/// When PASTA_TRACE arms spans, writes <stem>.trace.json (Chrome
/// trace-event JSON, Perfetto-loadable) and <stem>.spans.jsonl into
/// $PASTA_TRACE_DIR (falling back to $PASTA_CSV_DIR, then ".").  The
/// suite runners call this after each campaign; no-op with spans off.
void maybe_export_trace(const std::string& stem);

}  // namespace pasta::bench
