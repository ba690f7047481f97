/// \file
/// The benchmark's own tests: each correctness check must reject a
/// deliberately perturbed output, the generator must be a pure function
/// of its seed, and every workload's thread plan must stay within nproc.
///
///   .bench_build/perfbench/perfbench_tests     (exit code 0 = all pass)

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "checks.hpp"
#include "common/parallel.hpp"
#include "core/convert.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/ttm.hpp"
#include "kernels/ttv.hpp"
#include "serve/scheduler.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                        \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
            ++g_failures;                                                   \
        }                                                                   \
    } while (0)

GenTensor
small_tensor(std::uint64_t seed)
{
    return generate({"t", {40, 30, 50}, 1500, {0.6, 0.6, 0.6}}, seed);
}

/// Moves `v` by more than `bound` (and by at least one ulp).
float
nudge(float v, double bound)
{
    const float up = static_cast<float>(v + 3 * bound);
    return up != v ? up : std::nextafter(v, 2 * v + 1);
}

/// The element-wise bound of output entry `e` under `ref`.
double
bound_of(const Reference& ref, const OutEntry& e, int threads)
{
    return ref.gamma(threads) * ref.abs[ref.row_of.at(e.key) * ref.cols + e.col];
}

void
test_generator_is_seeded()
{
    const GenTensor a = small_tensor(7), b = small_tensor(7), c = small_tensor(8);
    EXPECT(a.idx == b.idx && a.vals == b.vals);
    EXPECT(a.idx != c.idx || a.vals != c.vals);
    EXPECT(a.nnz() == 1500);
    for (std::size_t p = 1; p < a.nnz(); ++p) {
        bool less = false;
        for (std::size_t m = 0; m < a.order(); ++m)
            if (a.idx[m][p - 1] != a.idx[m][p]) {
                less = a.idx[m][p - 1] < a.idx[m][p];
                break;
            }
        EXPECT(less);  // sorted and duplicate-free
    }
}

void
test_ts_tew_reject_nudge()
{
    const GenTensor g = small_tensor(3);
    std::vector<float> ts(g.vals.size()), tew(g.vals.size());
    for (std::size_t i = 0; i < g.vals.size(); ++i) {
        ts[i] = 1.5f * g.vals[i];
        tew[i] = g.vals[i] + g.vals[i];
    }
    EXPECT(check_ts(g.vals, ts, 1.5f).empty());
    EXPECT(check_tew(g.vals, tew).empty());
    ts[17] = std::nextafter(ts[17], 10.0f);
    tew[99] = std::nextafter(tew[99], 0.0f);
    EXPECT(!check_ts(g.vals, ts, 1.5f).empty());
    EXPECT(!check_tew(g.vals, tew).empty());
}

/// Shared body of the contraction tests: the program's COO and HiCOO
/// outputs pass, and one nudged element, a dropped element or a nudged
/// HiCOO element is rejected.
void
expect_contraction_checks(const Reference& ref, Outputs coo, Outputs hicoo)
{
    const int threads = pasta::num_threads();
    EXPECT(check_outputs(ref, coo, threads).empty());
    EXPECT(check_outputs(ref, hicoo, threads).empty());
    EXPECT(check_agree(ref, coo, hicoo, threads).empty());

    Outputs bad = coo;
    OutEntry& e = bad[bad.size() / 2];
    e.value = nudge(e.value, bound_of(ref, e, threads));
    EXPECT(!check_outputs(ref, bad, threads).empty());
    EXPECT(!check_agree(ref, bad, hicoo, threads).empty());

    Outputs dropped = coo;
    dropped.pop_back();
    EXPECT(!check_outputs(ref, dropped, threads).empty());

    Outputs doubled = coo;
    doubled.push_back(coo.front());
    EXPECT(!check_outputs(ref, doubled, threads).empty());
}

void
test_contractions_reject_perturbation()
{
    const GenTensor g = small_tensor(11);
    const pasta::CooTensor x = to_coo(g);
    const pasta::HiCooTensor h = pasta::coo_to_hicoo(x);
    pasta::Rng rng(5);
    for (std::size_t mode = 0; mode < g.order(); ++mode) {
        const Packer key(g.dims, mode);
        const pasta::DenseVector v = pasta::DenseVector::random(g.dims[mode], rng);
        expect_contraction_checks(ref_ttv(g, mode, v),
                                  outputs_of(pasta::ttv_coo(x, v, mode), key),
                                  outputs_of(pasta::ttv_hicoo(x, v, mode), key));

        const pasta::DenseMatrix u = pasta::DenseMatrix::random(g.dims[mode], 8, rng);
        expect_contraction_checks(ref_ttm(g, mode, u),
                                  outputs_of(pasta::ttm_coo(x, u, mode), key),
                                  outputs_of(pasta::ttm_hicoo(x, u, mode), key));

        std::vector<pasta::DenseMatrix> mats;
        for (std::size_t m = 0; m < g.order(); ++m)
            mats.push_back(pasta::DenseMatrix::random(g.dims[m], 8, rng));
        pasta::FactorList f;
        for (const auto& m : mats)
            f.push_back(&m);
        pasta::DenseMatrix a(g.dims[mode], 8), b(g.dims[mode], 8);
        pasta::mttkrp_coo(x, f, mode, a);
        pasta::mttkrp_hicoo(h, f, mode, b);
        expect_contraction_checks(ref_mttkrp(g, mode, f), outputs_of(a), outputs_of(b));
    }
}

void
test_serving_check_rejects_swap_drop_and_stuck_jobs()
{
    const int done = static_cast<int>(pasta::serve::JobState::kDone);
    const std::vector<std::uint64_t> expected = {111, 222, 333};
    std::vector<JobRecord> jobs = {
        {1, 0, done, 111}, {2, 1, done, 222}, {3, 2, done, 333}, {4, 1, done, 222}};
    EXPECT(check_serving(jobs, expected, 4, 4, 0).empty());

    auto swapped = jobs;
    std::swap(swapped[0].checksum, swapped[2].checksum);
    EXPECT(!check_serving(swapped, expected, 4, 4, 0).empty());

    auto dropped = jobs;
    dropped.pop_back();
    EXPECT(!check_serving(dropped, expected, 4, 4, 0).empty());

    auto stuck = jobs;
    stuck[1].state = static_cast<int>(pasta::serve::JobState::kRunning);
    EXPECT(!check_serving(stuck, expected, 4, 4, 0).empty());

    auto twice = jobs;
    twice[3].id = 1;
    EXPECT(!check_serving(twice, expected, 4, 4, 0).empty());

    // The engine says one job failed but the records say all were done.
    EXPECT(!check_serving(jobs, expected, 4, 3, 1).empty());
}

void
test_thread_plans_stay_within_nproc()
{
    for (int cpus = 1; cpus <= 64; ++cpus) {
        const ThreadPlan p = thread_plan("paper-sweep", cpus);
        EXPECT(p.program + p.loadgen <= cpus && p.program >= 1);
        for (const char* w : {"serve-hot", "serve-churn"}) {
            if (cpus < 2) {
                bool threw = false;
                try {
                    thread_plan(w, cpus);
                } catch (const std::invalid_argument&) {
                    threw = true;
                }
                EXPECT(threw);
                continue;
            }
            const ThreadPlan s = thread_plan(w, cpus);
            EXPECT(s.program + s.loadgen <= cpus && s.program >= 1 && s.loadgen == 1);
        }
    }
}

void
test_live_thread_counts_within_nproc()
{
    const int cpus = nproc();
    const int base = threads_now();  // this thread (and nothing else yet)
    EXPECT(base == 1);

    // paper-sweep: an OpenMP team of plan.program threads including this one.
    const ThreadPlan p = thread_plan("paper-sweep", cpus);
    int seen = 0;
#pragma omp parallel num_threads(p.program)
    {
#pragma omp master
        seen = threads_now();
    }
    EXPECT(seen == p.program && seen <= cpus);

    if (cpus < 2)
        return;
    // serving: plan.program workers plus this thread as the client, with
    // the OpenMP team of the block above parked.
    const ThreadPlan s = thread_plan("serve-hot", cpus);
    pasta::serve::ServeOptions opts;
    opts.workers = s.program;
    opts.job_threads = 1;
    pasta::serve::Executor executor(opts);
    {
        pasta::serve::Scheduler sched(opts, executor);
        const int during = threads_now() - (p.program - 1);
        EXPECT(during == s.program + s.loadgen && during <= cpus);
    }
}

}  // namespace

int
main()
{
    const std::pair<const char*, std::function<void()>> tests[] = {
        {"live_thread_counts_within_nproc", test_live_thread_counts_within_nproc},
        {"generator_is_seeded", test_generator_is_seeded},
        {"ts_tew_reject_nudge", test_ts_tew_reject_nudge},
        {"contractions_reject_perturbation", test_contractions_reject_perturbation},
        {"serving_check_rejects_swap_drop_and_stuck_jobs",
         test_serving_check_rejects_swap_drop_and_stuck_jobs},
        {"thread_plans_stay_within_nproc", test_thread_plans_stay_within_nproc},
    };
    for (const auto& [name, fn] : tests) {
        const int before = g_failures;
        fn();
        std::printf("%s %s\n", g_failures == before ? "PASS" : "FAIL", name);
    }
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
