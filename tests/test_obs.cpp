// Tests for the instrumentation layer (src/obs): mode arming, span
// recording/nesting/thread attribution, Chrome-trace export, the always-on
// kernel counters and decision labels in the metrics registry, trial
// delta accounting, and the GPU-sim counter feed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/convert.hpp"
#include "gpusim/gpu_kernels.hpp"
#include "gpusim/timing_model.hpp"
#include "harness/journal.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/ttv.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "roofline/machine.hpp"
#include "simd/simd.hpp"

namespace pasta::obs {
namespace {

using metrics::Counter;
using metrics::MetricsSnapshot;
using metrics::snapshot_metrics;

/// Every test leaves the process disarmed; the registry and span
/// buffers are process-global.
class ObsTest : public ::testing::Test {
  protected:
    void SetUp() override
    {
        set_mode(TraceMode::kOff);
        metrics::reset_metrics();
        reset_spans();
    }
    void TearDown() override { set_mode(TraceMode::kOff); }
};

CooTensor
small_tensor(std::uint64_t seed)
{
    Rng rng(seed);
    return CooTensor::random({32, 32, 32}, 300, rng);
}

TEST_F(ObsTest, ModeNamesRoundTrip)
{
    EXPECT_STREQ(mode_name(TraceMode::kOff), "off");
    EXPECT_STREQ(mode_name(TraceMode::kSpans), "spans");
}

TEST_F(ObsTest, RetiredTraceValuesAreRejected)
{
    for (const char* retired : {"counters", "full"}) {
        ::setenv("PASTA_TRACE", retired, 1);
        try {
            (void)mode_from_env();
            ADD_FAILURE() << "PASTA_TRACE=" << retired << " accepted";
        } catch (const PastaError& e) {
            EXPECT_NE(std::string(e.what()).find("always recorded"),
                      std::string::npos)
                << e.what();
        }
    }
    ::setenv("PASTA_TRACE", "spans", 1);
    EXPECT_EQ(mode_from_env(), TraceMode::kSpans);
    ::unsetenv("PASTA_TRACE");
    EXPECT_EQ(mode_from_env(), TraceMode::kOff);
}

TEST_F(ObsTest, OffRecordsNoSpans)
{
    ASSERT_FALSE(spans_enabled());
    {
        PASTA_SPAN("off.span");
    }
    EXPECT_TRUE(collect_spans().empty());
}

TEST_F(ObsTest, CountersLabelsAndGaugesAccumulate)
{
    const Counter flops("t.flops");
    flops.add(10);
    flops.add(20);
    const metrics::Gauge peak("t.peak");
    peak.max(5);
    peak.max(50);
    peak.max(25);
    metrics::LabelCounter("t.variant", "alpha").add();
    metrics::LabelCounter("t.variant", "beta").add();
    metrics::LabelCounter("t.variant", "beta").add();

    const MetricsSnapshot snap = snapshot_metrics();
    EXPECT_EQ(snap.counter("t.flops"), 30u);
    EXPECT_DOUBLE_EQ(snap.gauge("t.peak"), 50.0);
    EXPECT_EQ(snap.counter("t.variant=alpha"), 1u);
    EXPECT_EQ(snap.counter("t.variant=beta"), 2u);
}

TEST_F(ObsTest, HandleAddsFromEightThreadsSumExactly)
{
    constexpr int kThreads = 8;
    constexpr std::uint64_t kAdds = 100000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            // Each thread resolves its own handle: every copy shares
            // the one registry cell.
            const Counter items("mt.items");
            for (std::uint64_t i = 0; i < kAdds; ++i)
                items.add(3);
        });
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(snapshot_metrics().counter("mt.items"),
              kThreads * kAdds * 3);
}

TEST_F(ObsTest, DeltaSuffixSumAndWindowLabel)
{
    const Counter a_flops("a.flops");
    a_flops.add(100);
    metrics::LabelCounter("k.variant", "old").add();
    const MetricsSnapshot before = snapshot_metrics();
    a_flops.add(50);
    Counter("b.flops").add(25);
    Counter("a.bytes").add(600);
    metrics::Gauge("c.peak_bytes").max(4096);  // gauges never sum
    metrics::LabelCounter("k.variant", "y").add();
    metrics::LabelCounter("k.variant", "y").add();
    metrics::LabelCounter("k.variant", "x").add();
    const MetricsSnapshot after = snapshot_metrics();
    EXPECT_DOUBLE_EQ(delta_suffix_sum(before, after, ".flops"), 75.0);
    EXPECT_DOUBLE_EQ(delta_suffix_sum(before, after, ".bytes"), 600.0);
    // The value decided last in the window wins, however often the
    // others were decided.
    EXPECT_EQ(after.counter("k.variant=y"), 2u);
    EXPECT_EQ(metrics::last_label("k.variant"), "x");
    EXPECT_EQ(window_label(before, after, "k.variant"), "x");
    // A key the window never decided reads "", even with a stale last.
    metrics::LabelCounter("k.other", "stale").add();
    const MetricsSnapshot later = snapshot_metrics();
    EXPECT_EQ(window_label(later, snapshot_metrics(), "k.other"), "");
    EXPECT_EQ(window_label(before, after, "absent.key"), "");
}

TEST_F(ObsTest, SpanNestingAndThreadAttribution)
{
    set_mode(TraceMode::kSpans);
    {
        SpanScope outer("outer.phase");
        SpanScope inner("inner.phase");
    }
    std::thread worker([] { PASTA_SPAN("worker.phase"); });
    worker.join();

    const std::vector<SpanRecord> spans = collect_spans();
    ASSERT_EQ(spans.size(), 3u);
    const SpanRecord* outer = nullptr;
    const SpanRecord* inner = nullptr;
    const SpanRecord* off_thread = nullptr;
    for (const auto& s : spans) {
        if (s.name == "outer.phase")
            outer = &s;
        else if (s.name == "inner.phase")
            inner = &s;
        else if (s.name == "worker.phase")
            off_thread = &s;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(off_thread, nullptr);
    EXPECT_EQ(inner->depth, outer->depth + 1);
    EXPECT_EQ(outer->tid, inner->tid);
    EXPECT_NE(off_thread->tid, outer->tid);
    // The inner span is contained in the outer one.
    EXPECT_GE(inner->ts_us, outer->ts_us);
    EXPECT_LE(inner->ts_us + inner->dur_us,
              outer->ts_us + outer->dur_us + 1e-3);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed)
{
    set_mode(TraceMode::kSpans);
    {
        PASTA_SPAN("trace.a");
        PASTA_SPAN("trace.\"quoted\"\\name");
    }
    const std::string path =
        (std::filesystem::temp_directory_path() / "pasta_test_trace.json")
            .string();
    ASSERT_TRUE(write_chrome_trace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    std::remove(path.c_str());
    while (!text.empty() && text.back() == '\n')
        text.pop_back();

    EXPECT_EQ(text.front(), '{');
    EXPECT_EQ(text.back(), '}');
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("trace.a"), std::string::npos);
    // The quote and backslash must be escaped in the output.
    EXPECT_NE(text.find("trace.\\\"quoted\\\"\\\\name"),
              std::string::npos);
    // Braces and brackets balance (escaped chars live inside strings,
    // which this crude check tolerates because escapes are paired).
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
}

TEST_F(ObsTest, SpansJsonlOneObjectPerLine)
{
    set_mode(TraceMode::kSpans);
    {
        PASTA_SPAN("jsonl.a");
    }
    {
        PASTA_SPAN("jsonl.b");
    }
    const std::string path =
        (std::filesystem::temp_directory_path() / "pasta_test_spans.jsonl")
            .string();
    ASSERT_TRUE(write_spans_jsonl(path));
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        if (lines == 1) {
            // First line is the writer-identity metadata object.
            EXPECT_NE(line.find("\"pastaMeta\""), std::string::npos);
            EXPECT_NE(line.find("\"monoToEpochUs\""), std::string::npos);
            continue;
        }
        EXPECT_NE(line.find("\"name\""), std::string::npos);
        EXPECT_NE(line.find("\"dur_us\""), std::string::npos);
    }
    std::remove(path.c_str());
    EXPECT_EQ(lines, 3u);  // meta line + two spans
}

TEST_F(ObsTest, DroppedSpanCountSurfacesInExportedTraceMeta)
{
    set_mode(TraceMode::kSpans);
    // Overflow one thread's ring (16384 slots) so drops are guaranteed.
    for (int i = 0; i < 20000; ++i) {
        PASTA_SPAN("overflow.span");
    }
    const std::uint64_t dropped = spans_dropped();
    ASSERT_GT(dropped, 0u);

    const std::string path = (std::filesystem::temp_directory_path() /
                              "pasta_test_dropped_trace.json")
                                 .string();
    ASSERT_TRUE(write_chrome_trace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::remove(path.c_str());

    // The exact drop count must appear in the pastaMeta block.
    EXPECT_NE(text.find("\"pastaMeta\""), std::string::npos);
    EXPECT_NE(text.find("\"spansDropped\":" + std::to_string(dropped)),
              std::string::npos);
}

TEST_F(ObsTest, KernelCallsRecordTableICountersWithTracingOff)
{
    ::unsetenv("PASTA_TRACE");
    set_mode(mode_from_env());
    ASSERT_EQ(current_mode(), TraceMode::kOff);
    const CooTensor x = small_tensor(7);
    const double n = static_cast<double>(x.order());
    const double m = static_cast<double>(x.nnz());
    Rng rng(9);
    const Size rank = 4;
    const double r = static_cast<double>(rank);
    std::vector<DenseMatrix> mats;
    for (Size mode = 0; mode < x.order(); ++mode)
        mats.push_back(DenseMatrix::random(x.dim(mode), rank, rng));
    FactorList factors;
    for (const auto& mat : mats)
        factors.push_back(&mat);
    const std::string isa =
        metrics::label_name("simd.isa", simd::isa_name(simd::active_isa()));

    // TTV-COO: flops = 2M, bytes = 12M + 12M_F.
    const CooTtvPlan plan = ttv_plan_coo(x, 0);
    const DenseVector v = DenseVector::random(x.dim(0), rng);
    CooTensor ttv_out = plan.out_pattern;
    MetricsSnapshot before = snapshot_metrics();
    ttv_exec_coo(plan, v, ttv_out);
    MetricsSnapshot after = snapshot_metrics();
    const double mf = static_cast<double>(plan.fibers.num_fibers());
    EXPECT_EQ(delta_suffix_sum(before, after, ".flops"), 2 * m);
    EXPECT_EQ(delta_suffix_sum(before, after, ".bytes"), 12 * m + 12 * mf);
    EXPECT_EQ(after.counter(isa) - before.counter(isa), 1u);

    // MTTKRP-COO: flops = NMR, bytes = 4NMR + 4(N+1)M.
    DenseMatrix out(x.dim(0), rank);
    before = snapshot_metrics();
    const MttkrpVariant coo_pick = mttkrp_coo(x, factors, 0, out);
    after = snapshot_metrics();
    EXPECT_EQ(after.counter("mttkrp.flops") - before.counter("mttkrp.flops"),
              static_cast<std::uint64_t>(n * m * r));
    EXPECT_EQ(after.counter("mttkrp.bytes") - before.counter("mttkrp.bytes"),
              static_cast<std::uint64_t>(4 * n * m * r + 4 * (n + 1) * m));
    EXPECT_EQ(window_label(before, after, "mttkrp.variant"),
              mttkrp_variant_name(coo_pick));
    EXPECT_EQ(after.counter(isa) - before.counter(isa), 1u);

    // MTTKRP-HiCOO: flops = NMR, bytes = 4NR min{n_b B, M} + (4+N)M +
    // (4N+8) n_b.
    const HiCooTensor hx = coo_to_hicoo(x, 3);
    const double nb = static_cast<double>(hx.num_blocks());
    const double block = static_cast<double>(hx.block_size());
    before = snapshot_metrics();
    const MttkrpVariant hicoo_pick = mttkrp_hicoo(hx, factors, 0, out);
    after = snapshot_metrics();
    EXPECT_EQ(after.counter("mttkrp.flops") - before.counter("mttkrp.flops"),
              static_cast<std::uint64_t>(n * m * r));
    EXPECT_EQ(after.counter("mttkrp.bytes") - before.counter("mttkrp.bytes"),
              static_cast<std::uint64_t>(4 * n * r * std::min(nb * block, m) +
                                         (4 + n) * m + (4 * n + 8) * nb));
    const std::string variant =
        metrics::label_name("mttkrp.variant", mttkrp_variant_name(hicoo_pick));
    EXPECT_EQ(after.counter(variant) - before.counter(variant), 1u);
    EXPECT_EQ(after.counter(isa) - before.counter(isa), 1u);
}

TEST_F(ObsTest, GpusimCountersRecordLaunchesAndTraffic)
{
    const CooTensor x = small_tensor(11);
    const CooTensor y = small_tensor(13);
    CooTensor z = x;
    const gpusim::LaunchProfile profile =
        gpusim::tew_gpu_coo(x, y, EwOp::kAdd, z);
    (void)gpusim::estimate_seconds(gpusim::tesla_p100(), profile);

    const MetricsSnapshot snap = snapshot_metrics();
    EXPECT_GE(snap.counter("gpusim.launches"), 1u);
    EXPECT_GT(snap.counter("gpusim.sim_threads"), 0u);
    EXPECT_GT(snap.counter("gpusim.flops"), 0u);
    EXPECT_GT(snap.counter("gpusim.bytes"), 0u);
    EXPECT_EQ(snap.counter("gpusim.model_launches"), 1u);
    EXPECT_GT(snap.gauge("gpusim.mem_peak_bytes"), 0.0);
    EXPECT_LE(snap.gauge("gpusim.occupancy_pct"), 100.0);
}

/// Reads the "name" string of every span line of a spans.jsonl file.
std::vector<std::string>
span_names(const std::string& path)
{
    std::vector<std::string> names;
    std::ifstream in(path);
    std::string line;
    const std::string key = "{\"name\":";
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const char* p = line.data() + key.size();
        std::string name;
        EXPECT_TRUE(json::parse_string(p, line.data() + line.size(), name))
            << line;
        names.push_back(name);
    }
    return names;
}

TEST_F(ObsTest, JsonStringsRoundTripThroughSpansAndJournal)
{
    const std::string tricky = "q\"uote\\back\nnew\x01" "ctl";
    set_mode(TraceMode::kSpans);
    {
        PASTA_SPAN(tricky);
    }
    const auto dir = std::filesystem::temp_directory_path();
    const std::string jsonl = (dir / "pasta_test_escape.spans.jsonl").string();
    const std::string trace = (dir / "pasta_test_escape.trace.json").string();
    ASSERT_TRUE(write_spans_jsonl(jsonl));
    ASSERT_TRUE(write_chrome_trace(trace));
    EXPECT_EQ(span_names(jsonl), std::vector<std::string>{tricky});
    // The Chrome trace puts one event per line, also led by "name".
    EXPECT_EQ(span_names(trace), std::vector<std::string>{tricky});
    std::remove(jsonl.c_str());
    std::remove(trace.c_str());

    harness::JournalEntry entry;
    entry.tensor_id = "t";
    entry.kernel = "TTV";
    entry.format = "COO";
    entry.error = tricky;
    const std::string line = harness::to_json_line(entry);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    harness::JournalEntry parsed;
    ASSERT_TRUE(harness::parse_json_line(line, parsed));
    EXPECT_EQ(parsed.error, tricky);
}

TEST_F(ObsTest, RooflinePctAgainstMachineBalance)
{
    const MachineSpec spec = bluesky();
    ASSERT_GT(machine_balance(spec), 0.0);
    // Below machine balance the roof is ai x bandwidth: 0.1 x 205 GB/s
    // = 20.5 GFLOPS; 10.25 measured is 50%.
    EXPECT_NEAR(roofline_pct(10.25, 0.1, spec), 50.0, 1e-9);
    // Degenerate inputs are 0, never NaN/inf.
    EXPECT_EQ(roofline_pct(0.0, 0.1, spec), 0.0);
    EXPECT_EQ(roofline_pct(10.0, 0.0, spec), 0.0);
}

}  // namespace
}  // namespace pasta::obs
