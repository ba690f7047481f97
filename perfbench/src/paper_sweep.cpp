/// \file
/// paper-sweep: the paper's five kernels x {COO, HiCOO} over every mode of
/// two Table II-shaped tensors, timed as interleaved rounds.
///
/// One operation is one round: every (kernel, format, tensor, mode) call
/// once, in a fixed order that never repeats a kernel back to back.  Plans,
/// conversions, operands and outputs are prepared in set-up; the round only
/// runs the timed kernels, the way the paper times them.

#include <cstdlib>
#include <functional>
#include <sstream>

#include "bench.hpp"
#include "checks.hpp"
#include "common/parallel.hpp"
#include "core/convert.hpp"
#include "io/tns_io.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/tew.hpp"
#include "kernels/ts.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"
#include "simd/simd.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRank = 16;
constexpr float kScale = 1.5f;  // TS multiplier; exact on the value grid

/// Everything one input tensor needs in the timed rounds.
struct Case {
    std::string name;
    pasta::CooTensor x;
    pasta::HiCooTensor h;
    std::vector<pasta::CooTtvPlan> ttv_coo;
    std::vector<pasta::HicooTtvPlan> ttv_hicoo;
    std::vector<pasta::CooTtmPlan> ttm_coo;
    std::vector<pasta::HicooTtmPlan> ttm_hicoo;
    std::vector<pasta::DenseVector> v;   ///< TTV operand per mode
    std::vector<pasta::DenseMatrix> u;   ///< TTM/MTTKRP factor per mode
    pasta::FactorList factors;
    // Outputs of the most recent timed call of each kind.
    pasta::CooTensor tew_coo, ts_coo;
    pasta::HiCooTensor tew_hicoo, ts_hicoo;
    std::vector<pasta::CooTensor> ttv_coo_out;
    std::vector<pasta::HiCooTensor> ttv_hicoo_out;
    std::vector<pasta::ScooTensor> ttm_coo_out;
    std::vector<pasta::SHiCooTensor> ttm_hicoo_out;
    std::vector<pasta::DenseMatrix> mttkrp_coo_out, mttkrp_hicoo_out;
};

struct Call {
    Kern kern;
    bool hicoo;
    std::size_t tensor;
    std::size_t mode;  ///< unused by TEW/TS
    std::function<void()> run;
    Cost cost;
    std::vector<double> ms;     ///< per-call times, traced rounds
    std::vector<double> ms_1t;  ///< per-call times at one thread
    std::vector<double> ms_scalar;
};

void
fill(float* data, std::size_t n, Rng& rng)
{
    for (std::size_t i = 0; i < n; ++i)
        data[i] = rng.value(0.0f) - 0.5f;  // [-0.5, 0.5)
}

/// The stream triad a[i] = b[i] + s c[i] over `bytes` in total, median of
/// seven sweeps, in GB/s (three 8-byte streams per element).
double
triad_gbs(long bytes, int threads)
{
    const std::size_t n = static_cast<std::size_t>(bytes) / 24 + 1;
    std::vector<double> a(n), b(n), c(n);  // first touched serially
#pragma omp parallel for num_threads(threads) schedule(static)
    for (long long i = 0; i < static_cast<long long>(n); ++i) {
        b[i] = 1.0;
        c[i] = 2.0;
    }
    std::vector<double> gbs;
    for (int rep = 0; rep < 7; ++rep) {
        const double s = 0.5 + rep;
        const auto t = Clock::now();
#pragma omp parallel for num_threads(threads) schedule(static)
        for (long long i = 0; i < static_cast<long long>(n); ++i)
            a[i] = b[i] + s * c[i];
        gbs.push_back(24.0 * static_cast<double>(n) / seconds_since(t) / 1e9);
    }
    if (a[n / 2] != 1.0 + 6.5 * 2.0)
        return 0;  // the sweep was not performed
    return median(gbs);
}

}  // namespace

WorkloadResult
run_paper(const RunConfig& cfg)
{
    WorkloadResult res;
    const int threads = thread_plan("paper-sweep", cfg.cpus).program;
    pasta::set_num_threads(threads);
    const auto specs = paper_specs();

    // ---- set-up: read, convert, plan, allocate, one warm-up round ----
    // setup_s runs from the hand-over of the .tns files to the end of the
    // warm-up round.
    const auto setup_start = Clock::now();
    std::vector<Case> cases(specs.size());
    double io_s = 0, convert_s = 0;
    double plan_s[4] = {0, 0, 0, 0};  // ttv coo, ttv hicoo, ttm coo, ttm hicoo
    for (std::size_t t = 0; t < specs.size(); ++t) {
        Case& c = cases[t];
        c.name = specs[t].name;
        const std::string path = cfg.data_dir + "/" + c.name + ".tns";
        io_s += time_s([&] { c.x = pasta::read_tns_file(path); });
        convert_s += time_s([&] { c.h = pasta::coo_to_hicoo(c.x); });
        Rng rng(mix_seed(cfg.seed, 0xB0 + t));
        for (std::size_t m = 0; m < c.x.order(); ++m) {
            plan_s[0] += time_s([&] { c.ttv_coo.push_back(pasta::ttv_plan_coo(c.x, m)); });
            plan_s[1] += time_s([&] { c.ttv_hicoo.push_back(pasta::ttv_plan_hicoo(c.x, m)); });
            plan_s[2] += time_s([&] { c.ttm_coo.push_back(pasta::ttm_plan_coo(c.x, m, kRank)); });
            plan_s[3] += time_s([&] { c.ttm_hicoo.push_back(pasta::ttm_plan_hicoo(c.x, m, kRank)); });
            c.v.emplace_back(c.x.dim(m));
            fill(c.v.back().data(), c.x.dim(m), rng);
            c.u.emplace_back(c.x.dim(m), kRank);
            fill(c.u.back().data(), c.x.dim(m) * kRank, rng);
            c.ttv_coo_out.push_back(c.ttv_coo.back().out_pattern);
            c.ttv_hicoo_out.push_back(c.ttv_hicoo.back().out_pattern);
            c.ttm_coo_out.push_back(c.ttm_coo.back().out_pattern);
            c.ttm_hicoo_out.push_back(c.ttm_hicoo.back().out_pattern);
            c.mttkrp_coo_out.emplace_back(c.x.dim(m), kRank);
            c.mttkrp_hicoo_out.emplace_back(c.x.dim(m), kRank);
        }
        for (const auto& f : c.u)
            c.factors.push_back(&f);
    }

    // The round: per tensor TEW, TS, then per mode TTV, TTM, MTTKRP, each
    // in COO then HiCOO, so no kernel runs twice in a row.
    std::vector<Call> calls;
    auto add = [&calls](Kern k, bool hicoo, std::size_t t, std::size_t m,
                        std::function<void()> run) {
        calls.push_back({k, hicoo, t, m, std::move(run), {}, {}, {}, {}});
    };
    for (std::size_t t = 0; t < cases.size(); ++t) {
        Case& c = cases[t];
        add(Kern::kTew, false, t, 0, [&c] { c.tew_coo = pasta::tew_coo(c.x, c.x, pasta::EwOp::kAdd); });
        add(Kern::kTew, true, t, 0, [&c] { c.tew_hicoo = pasta::tew_hicoo(c.h, c.h, pasta::EwOp::kAdd); });
        add(Kern::kTs, false, t, 0, [&c] { c.ts_coo = pasta::ts_coo(c.x, pasta::TsOp::kMul, kScale); });
        add(Kern::kTs, true, t, 0, [&c] { c.ts_hicoo = pasta::ts_hicoo(c.h, pasta::TsOp::kMul, kScale); });
        for (std::size_t m = 0; m < c.x.order(); ++m) {
            add(Kern::kTtv, false, t, m, [&c, m] { pasta::ttv_exec_coo(c.ttv_coo[m], c.v[m], c.ttv_coo_out[m]); });
            add(Kern::kTtv, true, t, m, [&c, m] { pasta::ttv_exec_hicoo(c.ttv_hicoo[m], c.v[m], c.ttv_hicoo_out[m]); });
            add(Kern::kTtm, false, t, m, [&c, m] { pasta::ttm_exec_coo(c.ttm_coo[m], c.u[m], c.ttm_coo_out[m]); });
            add(Kern::kTtm, true, t, m, [&c, m] { pasta::ttm_exec_hicoo(c.ttm_hicoo[m], c.u[m], c.ttm_hicoo_out[m]); });
            add(Kern::kMttkrp, false, t, m, [&c, m] { pasta::mttkrp_coo(c.x, c.factors, m, c.mttkrp_coo_out[m]); });
            add(Kern::kMttkrp, true, t, m, [&c, m] { pasta::mttkrp_hicoo(c.h, c.factors, m, c.mttkrp_hicoo_out[m]); });
        }
    }

    auto round = [&](bool traced, std::vector<double> Call::*sink,
                     bool (*keep)(const Call&)) {
        const auto start = Clock::now();
        for (Call& call : calls) {
            if (keep && !keep(call))
                continue;
            if (!traced) {
                call.run();
                continue;
            }
            const auto t = Clock::now();
            call.run();
            (call.*sink).push_back(seconds_since(t) * 1e3);
        }
        return seconds_since(start);
    };

    round(false, nullptr, nullptr);  // first touch of every output
    const double setup_s = seconds_since(setup_start);

    // ---- timed phase: whole rounds for at least cfg.seconds ----
    // Untraced run: every round untraced.  Traced run: untraced and traced
    // rounds alternate, so drift hits both alike and their rates give the
    // tracing overhead.
    std::vector<double> op_s;
    double plain_s = 0, traced_s = 0;
    std::size_t plain_n = 0, traced_n = 0;
    const auto phase = Clock::now();
    while (seconds_since(phase) < cfg.seconds || (cfg.trace && (plain_n + traced_n) % 2)) {
        const bool traced = cfg.trace && (plain_n + traced_n) % 2 == 1;
        const double s = round(traced, &Call::ms, nullptr);
        op_s.push_back(s);
        (traced ? traced_s : plain_s) += s;
        ++(traced ? traced_n : plain_n);
        res.max_threads = std::max(res.max_threads, threads_now());
    }
    const double phase_s = seconds_since(phase);
    res.attempted = op_s.size();

    res.e2e.set("setup_s", setup_s, "s");
    res.e2e.set("ops_per_s", static_cast<double>(op_s.size()) / phase_s, "op/s");
    std::vector<double> op_ms;
    for (double s : op_s)
        op_ms.push_back(s * 1e3);
    res.e2e.set("op_p50_ms", quantile(op_ms, 0.5), "ms");
    res.e2e.set("op_p90_ms", quantile(op_ms, 0.9), "ms");
    res.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");

    std::ostringstream notes;
    notes << "paper-sweep: " << calls.size() << " calls per round, "
          << op_s.size() << " rounds in " << fmt(phase_s, 2) << " s ("
          << op_s.size() / 10 << " beyond p90), " << threads << " threads\n";

    // ---- traced extras: 1-thread and forced-scalar rounds, triad ----
    double triad = 0;
    if (cfg.trace) {
        const double extra_s = std::max(1.5, cfg.seconds * 0.2);
        pasta::set_num_threads(1);
        const auto t1 = Clock::now();
        for (int n = 0; n < 11 || seconds_since(t1) < extra_s; ++n)
            round(true, &Call::ms_1t, nullptr);
        pasta::set_num_threads(threads);

        setenv("PASTA_SIMD", "scalar", 1);
        pasta::simd::reset_isa_cache();
        auto simd_kernel = [](const Call& c) {
            return c.kern == Kern::kTtv || c.kern == Kern::kMttkrp;
        };
        const auto ts = Clock::now();
        for (int n = 0; n < 11 || seconds_since(ts) < extra_s; ++n)
            round(true, &Call::ms_scalar, simd_kernel);
        unsetenv("PASTA_SIMD");
        pasta::simd::reset_isa_cache();

        const long llc = llc_bytes() > 0 ? llc_bytes() : (32L << 20);
        triad = triad_gbs(4 * llc, threads);
    }

    // ---- checks, outside the timed phase, on outputs of timed calls ----
    for (std::size_t t = 0; t < cases.size(); ++t) {
        Case& c = cases[t];
        const GenTensor ref = generate(specs[t], paper_tensor_seed(cfg.seed, t));
        auto fail = [&](const std::string& what, const std::string& why) {
            if (!why.empty())
                res.failures.push_back(c.name + ": " + what + ": " + why);
        };
        bool same = c.x.dims() == ref.dims && c.x.nnz() == ref.nnz() &&
                    c.x.values() == ref.vals;
        for (std::size_t m = 0; same && m < ref.order(); ++m)
            same = c.x.mode_indices(m) == ref.idx[m];
        if (!same) {
            fail("io", "the tensor read from .tns differs from the generated one");
            continue;
        }
        fail("TEW-COO", check_tew(c.x.values(), c.tew_coo.values()));
        fail("TEW-HiCOO", check_tew(c.h.values(), c.tew_hicoo.values()));
        fail("TS-COO", check_ts(c.x.values(), c.ts_coo.values(), kScale));
        fail("TS-HiCOO", check_ts(c.h.values(), c.ts_hicoo.values(), kScale));
        for (std::size_t m = 0; m < ref.order(); ++m) {
            const Packer key(ref.dims, m);
            const std::string at = " (mode " + std::to_string(m) + ")";
            try {
                const Reference tv = ref_ttv(ref, m, c.v[m]);
                const Outputs a = outputs_of(c.ttv_coo_out[m], key);
                const Outputs b = outputs_of(c.ttv_hicoo_out[m], key);
                fail("TTV-COO" + at, check_outputs(tv, a, threads));
                fail("TTV-HiCOO" + at, check_outputs(tv, b, threads));
                fail("TTV" + at, check_agree(tv, a, b, threads));

                const Reference tm = ref_ttm(ref, m, c.u[m]);
                const Outputs p = outputs_of(c.ttm_coo_out[m], key);
                const Outputs q = outputs_of(c.ttm_hicoo_out[m], key);
                fail("TTM-COO" + at, check_outputs(tm, p, threads));
                fail("TTM-HiCOO" + at, check_outputs(tm, q, threads));
                fail("TTM" + at, check_agree(tm, p, q, threads));

                const Reference mk = ref_mttkrp(ref, m, c.factors);
                const Outputs y = outputs_of(c.mttkrp_coo_out[m]);
                const Outputs z = outputs_of(c.mttkrp_hicoo_out[m]);
                fail("MTTKRP-COO" + at, check_outputs(mk, y, threads));
                fail("MTTKRP-HiCOO" + at, check_outputs(mk, z, threads));
                fail("MTTKRP" + at, check_agree(mk, y, z, threads));
            } catch (const std::exception& e) {
                fail("output shape" + at, e.what());
            }
        }
        notes << "  " << c.name << ": " << c.x.describe() << ", "
              << ref.draws << " draws, COO " << fmt(ref.coo_bytes() / 1048576.0, 2)
              << " MiB, HiCOO blocks " << c.h.num_blocks() << "\n";
    }

    if (!cfg.trace) {
        res.notes = notes.str();
        return res;
    }

    // ---- per-layer metrics and table ----
    for (std::size_t t = 0; t < cases.size(); ++t) {
        const GenTensor ref = generate(specs[t], paper_tensor_seed(cfg.seed, t));
        const std::size_t blocks = count_blocks(ref, 7);
        std::vector<std::size_t> fibers;
        for (std::size_t m = 0; m < ref.order(); ++m)
            fibers.push_back(count_fibers(ref, m));
        for (Call& call : calls)
            if (call.tensor == t)
                call.cost = table1_cost(call.kern, call.hicoo, ref.order(), ref.nnz(),
                                        fibers[call.mode], blocks, kRank);
    }
    res.layer.set("io.tns_read_s", io_s, "s");
    res.layer.set("core.coo_to_hicoo_s", convert_s, "s");
    res.layer.set("kernels.plan_ttv_coo_s", plan_s[0], "s");
    res.layer.set("kernels.plan_ttv_hicoo_s", plan_s[1], "s");
    res.layer.set("kernels.plan_ttm_coo_s", plan_s[2], "s");
    res.layer.set("kernels.plan_ttm_hicoo_s", plan_s[3], "s");

    const double round_mean_ms = traced_n ? traced_s / traced_n * 1e3 : 0;
    std::ostringstream table;
    table << "per-layer table, paper-sweep (traced rounds: " << traced_n
          << ", mean round " << fmt(round_mean_ms) << " ms)\n"
          << "  layer               mean ms/round  share   Table I flops   computed bytes   OI flop/B\n";
    double attributed_ms = 0;
    for (Kern k : {Kern::kTew, Kern::kTs, Kern::kTtv, Kern::kTtm, Kern::kMttkrp})
        for (bool hicoo : {false, true}) {
            double med = 0, med_1t = 0, med_sc = 0, mean = 0, flops = 0, bytes = 0;
            for (const Call& c : calls)
                if (c.kern == k && c.hicoo == hicoo) {
                    med += median(c.ms);
                    med_1t += median(c.ms_1t);
                    med_sc += median(c.ms_scalar);
                    double sum = 0;
                    for (double v : c.ms)
                        sum += v;
                    mean += c.ms.empty() ? 0 : sum / c.ms.size();
                    flops += c.cost.flops;
                    bytes += c.cost.bytes;
                }
            const std::string name =
                std::string(kern_name(k)) + (hicoo ? "_hicoo" : "_coo");
            res.layer.set("kernels." + name + "_ms", med, "ms");
            res.layer.set("kernels." + name + "_gflops", flops / (med * 1e-3) / 1e9, "GFLOP/s");
            res.layer.set("kernels." + name + "_oi", flops / bytes, "flop/B");
            res.layer.set("kernels." + name + "_speedup_1t", med_1t / med, "x");
            if (k == Kern::kTtv || k == Kern::kMttkrp)
                res.layer.set("simd.scalar_" + name + "_ms", med_sc, "ms");
            attributed_ms += mean;
            char line[160];
            std::snprintf(line, sizeof(line),
                          "  kernels.%-13s %13.4f %6.1f%% %15.0f %16.0f %11.4f\n",
                          name.c_str(), mean, 100 * mean / round_mean_ms, flops,
                          bytes, flops / bytes);
            table << line;
        }
    char line[160];
    std::snprintf(line, sizeof(line), "  %-21s %13.4f %6.1f%%\n", "unattributed",
                  round_mean_ms - attributed_ms,
                  100 * (round_mean_ms - attributed_ms) / round_mean_ms);
    table << line;
    const double plain_rate = plain_n / plain_s, traced_rate = traced_n / traced_s;
    const double overhead = 100 * (plain_rate - traced_rate) / plain_rate;
    table << "  tracing overhead: untraced " << fmt(plain_rate, 2) << " op/s, traced "
          << fmt(traced_rate, 2) << " op/s, " << fmt(overhead, 2) << "%\n"
          << "  mem.triad_gbs " << fmt(triad, 2) << " GB/s over "
          << (4 * (llc_bytes() > 0 ? llc_bytes() : (32L << 20)) >> 20)
          << " MiB (roofline context only)\n";
    res.layer.set("mem.triad_gbs", triad, "GB/s");
    res.layer.set("obs.trace_overhead_pct", overhead, "%");
    res.table = table.str();
    res.notes = notes.str();
    return res;
}

}  // namespace perfbench
