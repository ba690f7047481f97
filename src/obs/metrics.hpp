/// \file
/// The metrics registry: always-on counters, gauges, and log-linear
/// HDR-style histograms, periodically exported as an append-only JSONL
/// heartbeat.  It is the suite's only registry.
///
/// What lands here:
///   - the Table I model counters of every kernel call ("<kernel>.flops",
///     "<kernel>.bytes"; the bench harness sums the ".flops"/".bytes"
///     deltas of a trial into its obs_flops/obs_bytes columns), plus
///     "mttkrp.atomics", "gpusim.*", "sort.radix_*", "stream.partitions";
///   - decision labels as per-value counters "<key>=<value>"
///     ("mttkrp.variant=atomic", "simd.isa=avx2", "merge.path=...",
///     "sort.path=...", "stream.variant=...");
///   - serving, trial and campaign events and latency histograms.
/// Recording is a relaxed atomic op on a handle resolved once (Counter,
/// Gauge, Histogram&), and happens once per kernel call, job or trial —
/// never per non-zero, fiber, block or chunk.  A background exporter
/// thread — armed via
///   PASTA_METRICS=<path>[,interval_ms]
/// — snapshots the registry every interval into `path` as one JSON
/// object per line (fsync'd per snapshot), so `tail -f` and
/// scripts/metrics_summary.py can watch a run mid-flight and a torn
/// final line (SIGKILL mid-write) never corrupts earlier heartbeats.
///
/// Histograms are log-linear with 32 sub-buckets per octave: values
/// below 64 are exact, larger values land in a bucket whose width is at
/// most value/32, so any reported percentile is within ~3.125% relative
/// error of the exact sorted-sample percentile (plus half a unit for the
/// integer buckets).  Storage is O(buckets) — 1920 slots covers the full
/// uint64 range — which is what lets bench_serving keep per-job latency
/// percentiles over millions of jobs without the unbounded vectors it
/// used before.  Recording is lock-free after a shard's first touch:
/// each histogram keeps 16 lazily-installed shards, threads hash onto a
/// shard, and shards are summed on read.
///
/// The snapshot schema (parse_snapshot_line / merge_snapshots round-trip
/// it) is what the campaign supervisor aggregates across shards: sum
/// counters, merge histograms, max gauges.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pasta::obs::metrics {

/// Sub-bucket resolution: 2^5 = 32 buckets per power of two, giving a
/// worst-case bucket width of value/32 (~3.125% relative error).
inline constexpr int kSubBits = 5;

/// Dense bucket count covering all of uint64: values < 64 are exact
/// (indices 0..63), and each of the 58 remaining octaves contributes 32
/// buckets: 64 + 58*32 = 1920.
inline constexpr std::size_t kHistBuckets = 1920;

/// Bucket index for a recorded value (monotone in v).
inline std::size_t
bucket_index(std::uint64_t v)
{
    if (v < 64)
        return static_cast<std::size_t>(v);
    const int b = std::bit_width(v) - 1;  // 63 - clz; b >= 6 here
    return static_cast<std::size_t>(b - kSubBits) * 32 +
           static_cast<std::size_t>(v >> (b - kSubBits));
}

/// Inclusive lower edge of bucket `idx`.
inline std::uint64_t
bucket_lower(std::size_t idx)
{
    if (idx < 64)
        return idx;
    const std::size_t hi = idx >> 5;        // octave group, >= 2
    const int b = static_cast<int>(hi) + 4; // exponent of the octave
    const std::uint64_t m = idx - (hi - 1) * 32;  // mantissa in [32, 64)
    return m << (b - kSubBits);
}

/// Width of bucket `idx` (1 for the exact range).
inline std::uint64_t
bucket_width(std::size_t idx)
{
    if (idx < 64)
        return 1;
    const std::size_t hi = idx >> 5;
    return std::uint64_t{1} << (static_cast<int>(hi) + 4 - kSubBits);
}

/// One histogram read out of the registry (or parsed back from JSONL):
/// sparse nonzero buckets sorted by index, plus the moments needed for
/// means and exact-extreme reporting.  This is the mergeable unit the
/// campaign aggregator sums across shards.
struct HistSample {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< exact smallest recorded value (0 if empty)
    std::uint64_t max = 0;  ///< exact largest recorded value
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

    double mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    /// Value at quantile q in [0,1]: the representative (midpoint; exact
    /// for the unit-width buckets) of the bucket holding sample number
    /// max(1, ceil(q*count)) — the same rank convention as indexing a
    /// sorted sample vector at ceil(q*n)-1, so the estimate is always
    /// inside the bucket that contains the exact percentile.
    double percentile(double q) const;

    /// Accumulates `other` into this sample (commutative, associative).
    void merge_from(const HistSample& other);
};

/// A concurrent log-linear histogram.  record() is wait-free after the
/// calling thread's shard exists (relaxed adds plus two CAS extreme
/// updates); snapshot() sums the shards.
class Histogram {
  public:
    explicit Histogram(std::string name);
    ~Histogram();
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    const std::string& name() const { return name_; }

    void record(std::uint64_t v);
    HistSample snapshot() const;
    void reset();

  private:
    static constexpr std::size_t kShards = 16;

    struct Shard;
    Shard& shard_for_thread();

    std::string name_;
    std::atomic<Shard*> shards_[kShards] = {};
};

/// The histogram registered under `name`, created on first use; the
/// reference stays valid for the life of the process so hot call sites
/// (the serving scheduler, bench loops) can cache it.
Histogram& histogram(const std::string& name);

/// A counter resolved out of the registry once.  add() is one relaxed
/// atomic add — no lock, no name lookup — safe from any thread.  Every
/// per-kernel-call and per-job site holds its handles in function-local
/// statics (or an enum-indexed array, see label_counters), so only the
/// first call pays the registry mutex.  Copies share the cell.
class Counter {
  public:
    explicit Counter(const std::string& name);

    void add(std::uint64_t v = 1) const
    {
        cell_->fetch_add(v, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t>* cell_;
};

/// A gauge resolved out of the registry once (the Counter discipline).
class Gauge {
  public:
    explicit Gauge(const std::string& name);

    /// gauge = v (instantaneous levels: resident cache bytes, ...).
    void set(double v) const { cell_->store(v, std::memory_order_relaxed); }

    /// gauge = max(gauge, v) (high-water marks: queue depth, ...).
    void max(double v) const
    {
        double cur = cell_->load(std::memory_order_relaxed);
        while (v > cur && !cell_->compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

  private:
    std::atomic<double>* cell_;
};

/// Decision labels are counters too: every time a site decides, it adds
/// one to "<key>=<value>" ("mttkrp.variant=atomic").  They then travel
/// through snapshots, heartbeats and the campaign merge like any other
/// counter, and a delta over a window says which values were chosen
/// there.  Each key also remembers the value decided last (last_label),
/// so a window that decided differently per mode reports the final one.
inline std::string
label_name(const std::string& key, const std::string& value)
{
    return key + "=" + value;
}

/// The handle for one (key, value) label: add() is a relaxed add on the
/// value's counter plus a relaxed store of the key's last value.
/// Constructing one takes the registry mutex: resolve once, except for
/// open-valued labels decided once per long operation.
class LabelCounter {
  public:
    LabelCounter(const std::string& key, const std::string& value);

    void add() const
    {
        cell_->fetch_add(1, std::memory_order_relaxed);
        last_->store(name_, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t>* cell_;
    std::atomic<const std::string*>* last_;  ///< the key's last decision
    const std::string* name_;                ///< registry-owned full name
};

/// One label counter per value of an enum-valued decision, indexed by
/// the enum: label_counters<N>(key, name)[size_t(v)] counts
/// "<key>=<name(v)>".  N is the number of enumerators (0..N-1).
template <std::size_t N, typename Enum>
std::array<LabelCounter, N>
label_counters(const char* key, const char* (*name)(Enum))
{
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return std::array<LabelCounter, N>{
            LabelCounter(key, name(static_cast<Enum>(I)))...};
    }(std::make_index_sequence<N>{});
}

/// The value last decided under `key`; "" when none since the last
/// reset_metrics().
std::string last_label(const std::string& key);

/// Point-in-time copy of the registry, plus the heartbeat envelope
/// (wall-clock stamp, per-exporter sequence number, source label).
struct MetricsSnapshot {
    double ts = 0.0;        ///< unix seconds (system clock)
    std::uint64_t seq = 0;  ///< per-exporter snapshot ordinal
    std::string source;     ///< who exported: "bench", shard id, ...
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistSample> hists;

    std::uint64_t counter(const std::string& name) const;
    double gauge(const std::string& name) const;
    const HistSample* hist(const std::string& name) const;
};

/// Copies every counter, gauge, and histogram (relaxed loads; exact once
/// recording threads are quiescent).  ts/seq/source are left default.
MetricsSnapshot snapshot_metrics();

/// Zeroes every metric and forgets the last labels (names stay
/// registered).  Test plumbing.
void reset_metrics();

/// Serializes one snapshot as a single JSON line (no trailing newline):
///   {"ts":...,"seq":N,"source":"...","counters":{...},"gauges":{...},
///    "hists":{"name":{"count":..,"sum":..,"min":..,"max":..,
///             "buckets":[[idx,count],...]}}}
std::string snapshot_to_json(const MetricsSnapshot& snap);

/// Parses one heartbeat line.  Returns false (leaving `out` untouched)
/// on malformed input — torn tails from a killed writer are expected and
/// must not abort aggregation.  Unknown keys are skipped.
bool parse_snapshot_line(const std::string& line, MetricsSnapshot& out);

/// Reads the LAST parseable snapshot of a heartbeat file (the newest
/// complete state of that exporter).  False when none parses.
bool load_last_snapshot(const std::string& path, MetricsSnapshot& out);

/// Campaign-wide aggregate: counters summed, gauges maxed, histograms
/// merged.  ts is the max input ts, seq the max seq, source taken from
/// the caller.
MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& snaps,
                                const std::string& source);

/// Exporter arming, parsed from PASTA_METRICS=<path>[,interval_ms].
struct ExporterOptions {
    std::string path;        ///< empty = disarmed
    double interval_s = 1.0; ///< heartbeat period

    bool armed() const { return !path.empty(); }

    /// Strict parse of PASTA_METRICS; unset/empty means disarmed, a
    /// malformed interval throws PastaError.
    static ExporterOptions from_env();
};

/// Starts the background exporter: an immediate first snapshot, then one
/// per interval, appended+fsync'd to opts.path.  Stops any previously
/// running exporter first.  Each tick refreshes the memory governor's
/// gauges (mem.reserved, mem.peak) and obs.spans_dropped before
/// snapshotting; nothing else writes those names.
/// Returns false when disarmed or the file cannot be opened.
bool start_exporter(const ExporterOptions& opts, const std::string& source);

/// start_exporter(ExporterOptions::from_env(), source); false when
/// PASTA_METRICS is unset.
bool arm_from_env(const std::string& source);

/// Stops the exporter thread after writing one final snapshot.  Safe to
/// call when no exporter runs.  Forking callers must stop the exporter
/// before fork() so children never inherit its thread mid-write.
void stop_exporter();

/// True while an exporter thread is running in this process.
bool exporter_running();

}  // namespace pasta::obs::metrics
