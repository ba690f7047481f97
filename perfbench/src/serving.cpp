/// \file
/// serve-hot and serve-churn: a closed loop over the serving engine.
///
/// One client thread keeps a fixed number of requests outstanding: it
/// submits the next request only when one of its slots' jobs is terminal.
/// The traffic is bench/bench_serving's: small 3rd-order tensors of 16384
/// non-zeros, and jobs drawn 30% TTV-COO, 30% TTV-HiCOO, 30% MTTKRP-HiCOO
/// and 10% MTTKRP-COO over a uniformly drawn tensor and mode.  The corpus
/// is made of CooTensors built through the public API.  serve-hot's corpus
/// (bench_serving's 8 tensors) fits the plan cache, which set-up warms;
/// serve-churn's corpus is far larger than its cache budget, so nearly
/// every job builds its plan and evicts another.  One operation is one
/// served job; the run attempts whole rounds of jobs, and drains the
/// engine between rounds.

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "common/parallel.hpp"
#include "io/binary_io.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/ttv.hpp"
#include "serve/plan_cache.hpp"
#include "serve/scheduler.hpp"

namespace perfbench {

namespace {

using pasta::serve::ServeFormat;
using pasta::serve::ServeJob;
using pasta::serve::ServeKernel;

// Outstanding requests per worker: one running and one waiting, so a job's
// latency is about one execution of queue wait plus its own, and a worker
// the engine leaves idle while a job waits shows in ops_per_s.
constexpr std::size_t kSlotsPerWorker = 2;
constexpr std::size_t kRank = 16;
constexpr unsigned kBlockBits = 7;
constexpr std::uint32_t kOrder = 3;  // every corpus tensor's order
constexpr std::size_t kHotTensors = 8, kChurnTensors = 64;
constexpr std::uint64_t kHotCacheBytes = 64ULL << 20, kChurnCacheBytes = 4ULL << 20;
// Jobs per round, about 0.2 s of work each on a 4-CPU host.
constexpr std::size_t kHotRoundJobs = 2048, kChurnRoundJobs = 512;

/// bench_serving's job mix; MTTKRP-COO is planless, the cacheless control
/// group inside every phase.
struct Kind {
    ServeKernel kernel;
    ServeFormat format;
    unsigned tenths;  ///< share of the jobs, in tenths
    double share() const { return tenths / 10.0; }
};
constexpr Kind kKinds[4] = {
    {ServeKernel::kTtv, ServeFormat::kCoo, 3},
    {ServeKernel::kTtv, ServeFormat::kHicoo, 3},
    {ServeKernel::kMttkrp, ServeFormat::kHicoo, 3},
    {ServeKernel::kMttkrp, ServeFormat::kCoo, 1},
};
/// The kind of a uniform draw in [0, 10), in the kinds' shares.
std::size_t
kind_of(std::uint32_t tenth)
{
    std::size_t k = 0;
    for (unsigned below = kKinds[0].tenths; tenth >= below; below += kKinds[++k].tenths) {
    }
    return k;
}

struct Request {
    std::uint32_t tensor = 0;
    ServeKernel kernel = ServeKernel::kTtv;
    ServeFormat format = ServeFormat::kCoo;
    std::uint32_t mode = 0;
    std::uint64_t seed = 0;
};

std::uint64_t
checksum(const float* data, std::size_t n)
{
    return pasta::fnv1a64(data, n * sizeof(float));
}

/// The request run straight through the public plan and kernel functions,
/// outside the engine, at one thread (the engine's job_threads = 1
/// bit-identity contract): same operand stream, same kernels, same
/// checksum.
std::uint64_t
direct_checksum(const pasta::CooTensor& x, const Request& r)
{
    pasta::ThreadBudgetScope one(1);
    pasta::Rng rng(r.seed);
    if (r.kernel == ServeKernel::kTtv) {
        const auto plan = pasta::serve::build_plan(x, r.kernel, r.format, r.mode, kBlockBits);
        const pasta::DenseVector v = pasta::DenseVector::random(x.dim(r.mode), rng);
        if (r.format == ServeFormat::kCoo) {
            pasta::CooTensor out = plan->ttv_coo->out_pattern;
            pasta::ttv_exec_coo(*plan->ttv_coo, v, out);
            return checksum(out.values().data(), out.nnz());
        }
        pasta::HiCooTensor out = plan->ttv_hicoo->out_pattern;
        pasta::ttv_exec_hicoo(*plan->ttv_hicoo, v, out);
        return checksum(out.values().data(), out.nnz());
    }
    std::vector<pasta::DenseMatrix> mats;
    for (std::size_t m = 0; m < x.order(); ++m)
        mats.push_back(pasta::DenseMatrix::random(x.dim(m), kRank, rng));
    pasta::FactorList factors;
    for (const auto& m : mats)
        factors.push_back(&m);
    pasta::DenseMatrix out(x.dim(r.mode), kRank);
    if (r.format == ServeFormat::kCoo) {
        pasta::mttkrp_coo_privatized(x, factors, r.mode, out);
    } else {
        const auto plan = pasta::serve::build_plan(x, r.kernel, r.format, r.mode, kBlockBits);
        pasta::mttkrp_hicoo(*plan->mttkrp_hicoo, factors, r.mode, out);
    }
    return checksum(out.data(), out.rows() * out.cols());
}

}  // namespace

WorkloadResult
run_serving(const RunConfig& cfg, bool churn)
{
    WorkloadResult res;
    const std::string name = churn ? "serve-churn" : "serve-hot";
    const ThreadPlan plan = thread_plan(name, cfg.cpus);
    pasta::set_num_threads(1);  // the client thread never fans out

    const auto specs = corpus_specs(churn ? kChurnTensors : kHotTensors);
    std::vector<GenTensor> gens;
    for (std::size_t i = 0; i < specs.size(); ++i)
        gens.push_back(generate(specs[i], mix_seed(cfg.seed, 0x100 + i)));

    // ---- set-up, from the hand-over of the generated data: corpus,
    // fingerprints, requests, engine, warm-up ----
    const auto setup_start = Clock::now();
    std::vector<std::shared_ptr<const pasta::CooTensor>> corpus;
    std::vector<std::uint64_t> fingerprints;
    std::size_t corpus_nnz = 0;
    for (const GenTensor& g : gens) {
        corpus.push_back(std::make_shared<const pasta::CooTensor>(to_coo(g)));
        fingerprints.push_back(pasta::serve::tensor_fingerprint(*corpus.back()));
        corpus_nnz += corpus.back()->nnz();
    }
    // Request (tensor t, kind k, mode m) sits at
    // (t * std::size(kKinds) + k) * kOrder + m.
    std::vector<Request> requests;
    for (std::uint32_t t = 0; t < corpus.size(); ++t)
        for (const Kind& k : kKinds)
            for (std::uint32_t m = 0; m < kOrder; ++m)
                requests.push_back({t, k.kernel, k.format, m,
                                    mix_seed(cfg.seed, 0x200 + requests.size())});

    pasta::serve::ServeOptions opts;
    opts.workers = plan.program;
    opts.queue_bound = 4096;
    opts.cache_bytes = churn ? kChurnCacheBytes : kHotCacheBytes;
    opts.job_threads = 1;
    opts.block_bits = kBlockBits;
    pasta::serve::Executor executor(opts);
    pasta::serve::Scheduler sched(opts, executor);
    const std::size_t slots_n = kSlotsPerWorker * static_cast<std::size_t>(plan.program);

    // The checksum every request must produce, from direct runs outside
    // the engine (computed in parallel, one thread per CPU, each at the
    // engine's per-job budget of one thread).
    auto direct_checksums = [&] {
        std::vector<std::uint64_t> expected(requests.size(), 0);
        std::vector<std::string> errors(static_cast<std::size_t>(cfg.cpus));
        std::atomic<std::size_t> cursor{0};
        std::vector<std::thread> pool;
        for (int w = 0; w < cfg.cpus; ++w)
            pool.emplace_back([&, w] {
                try {
                    for (std::size_t i; (i = cursor.fetch_add(1)) < requests.size();)
                        expected[i] = direct_checksum(*corpus[requests[i].tensor], requests[i]);
                } catch (const std::exception& e) {
                    errors[static_cast<std::size_t>(w)] = e.what();
                }
            });
        for (auto& t : pool)
            t.join();
        for (const auto& e : errors)
            if (!e.empty())
                res.failures.push_back(name + ": direct run failed: " + e);
        return expected;
    };

    std::vector<JobRecord> records;  // the current round's jobs
    LogHist lat, wait, exec;
    std::uint64_t next_id = 1;
    // Runs `n` jobs through the closed loop; the i-th job serves request
    // pick(i).  Each slot holds one outstanding job.  With `timed`, the
    // jobs' latencies go into the histograms.  Returns the round's seconds.
    auto closed_loop = [&](std::size_t n, auto&& pick, bool timed, double* submit_s) {
        records.clear();
        std::vector<std::shared_ptr<ServeJob>> slot(slots_n);
        std::vector<std::uint32_t> slot_request(slots_n);
        std::size_t issued = 0, finished = 0;
        const auto start = Clock::now();
        while (finished < n) {
            bool progressed = false;
            for (std::size_t s = 0; s < slots_n; ++s) {
                std::shared_ptr<ServeJob>& job = slot[s];
                if (job && job->terminal()) {
                    records.push_back({job->id, slot_request[s],
                                       static_cast<int>(job->current_state()),
                                       job->result_checksum});
                    if (timed) {
                        lat.add((job->done_ns - job->submit_ns) * 1e-6);
                        wait.add((job->start_ns - job->submit_ns) * 1e-6);
                        exec.add((job->done_ns - job->start_ns) * 1e-6);
                    }
                    job.reset();
                    ++finished;
                    progressed = true;
                }
                if (!job && issued < n) {
                    const std::size_t ri = pick(issued++);
                    const Request& r = requests[ri];
                    auto j = std::make_shared<ServeJob>();
                    j->id = next_id++;
                    j->tensor = corpus[r.tensor];
                    j->fingerprint = fingerprints[r.tensor];
                    j->kernel = r.kernel;
                    j->format = r.format;
                    j->mode = r.mode;
                    j->rank = kRank;
                    j->operand_seed = r.seed;
                    const auto t0 = submit_s ? Clock::now() : Clock::time_point{};
                    const bool accepted = sched.submit(j);
                    if (submit_s)
                        *submit_s += seconds_since(t0);
                    if (accepted) {
                        job = std::move(j);
                        slot_request[s] = static_cast<std::uint32_t>(ri);
                    } else {
                        ++finished;  // shed: counted as failed, never accepted
                    }
                    progressed = true;
                }
            }
            if (!progressed)
                std::this_thread::yield();
        }
        sched.drain();  // releases the engine's references to the round's jobs
        return seconds_since(start);
    };
    // Checks one round's records against the engine's totals for that
    // round; runs between rounds, outside the timed intervals.
    std::vector<std::uint64_t> expected;
    auto check_round = [&](const pasta::serve::Scheduler::Stats& before) {
        const auto after = sched.stats();
        const std::string why =
            check_serving(records, expected, after.submitted - before.submitted,
                          after.done - before.done, after.failed - before.failed);
        if (!why.empty() && res.failures.size() < 8)
            res.failures.push_back(name + ": " + why);
    };

    // Jobs draw their kind in the mix's shares, then tensor and mode
    // uniformly, as bench_serving does.
    auto picker = [&](std::uint64_t stream) {
        return [&, rng = Rng(mix_seed(cfg.seed, stream))](std::size_t) mutable {
            const std::size_t k = kind_of(rng.below(10));
            const std::size_t t = rng.below(static_cast<std::uint32_t>(corpus.size()));
            return (t * std::size(kKinds) + k) * kOrder + rng.below(kOrder);
        };
    };
    const std::size_t round_jobs = churn ? kChurnRoundJobs : kHotRoundJobs;
    auto warm_stats = sched.stats();
    if (churn)
        closed_loop(round_jobs, picker(0x301), false, nullptr);
    else
        closed_loop(requests.size(), [](std::size_t i) { return i; }, false, nullptr);
    const double setup_s = seconds_since(setup_start);
    const std::size_t warm_jobs = records.size();
    expected = direct_checksums();
    check_round(warm_stats);

    // ---- timed phase: whole rounds, at least cfg.seconds of them ----
    const auto sched0 = sched.stats();
    const auto cache0 = executor.cache()->stats();
    auto pick = picker(0x300);
    double plain_s = 0, traced_s = 0, submit_s = 0;
    std::size_t plain_n = 0, traced_n = 0, rounds = 0;
    while (plain_s + traced_s < cfg.seconds || (cfg.trace && rounds % 2)) {
        const bool traced = cfg.trace && rounds % 2 == 1;
        const auto before = sched.stats();
        const double s = closed_loop(round_jobs, pick, true, traced ? &submit_s : nullptr);
        (traced ? traced_s : plain_s) += s;
        (traced ? traced_n : plain_n) += round_jobs;
        ++rounds;
        res.max_threads = std::max(res.max_threads, threads_now());
        check_round(before);
    }
    const double phase_s = plain_s + traced_s;
    const auto sched1 = sched.stats();
    const auto cache1 = executor.cache()->stats();
    sched.stop();

    const std::size_t jobs = rounds * round_jobs;
    res.attempted = jobs;
    res.failed = (sched1.failed - sched0.failed) + (sched1.shed - sched0.shed);
    res.e2e.set("setup_s", setup_s, "s");
    res.e2e.set("ops_per_s", static_cast<double>(jobs) / phase_s, "op/s");
    res.e2e.set("op_p50_ms", lat.quantile(0.5), "ms");
    res.e2e.set("op_p90_ms", lat.quantile(0.9), "ms");
    res.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");

    std::ostringstream notes;
    notes << name << ": corpus " << corpus.size() << " tensors, " << corpus_nnz
          << " nnz, " << requests.size() << " distinct requests, cache budget "
          << (opts.cache_bytes >> 20) << " MiB, " << plan.program << " workers + "
          << plan.loadgen << " client, " << slots_n << " outstanding; " << jobs
          << " jobs in " << rounds << " rounds, " << fmt(phase_s, 2)
          << " s, warm-up " << warm_jobs << " jobs\n";
    res.notes = notes.str();
    if (!cfg.trace)
        return res;

    // ---- per-layer metrics: engine figures and direct calls ----
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double misses = static_cast<double>(cache1.misses - cache0.misses);
    res.layer.set("serve.wait_p50_ms", wait.quantile(0.5), "ms");
    res.layer.set("serve.wait_p90_ms", wait.quantile(0.9), "ms");
    res.layer.set("serve.exec_p50_ms", exec.quantile(0.5), "ms");
    res.layer.set("serve.exec_p90_ms", exec.quantile(0.9), "ms");
    res.layer.set("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    res.layer.set("serve.cache_evictions", static_cast<double>(cache1.evictions - cache0.evictions), "count");
    res.layer.set("serve.cache_resident_mb", static_cast<double>(cache1.resident_bytes) / 1048576.0, "MiB");
    res.layer.set("serve.steals", static_cast<double>(sched1.stolen - sched0.stolen), "count");
    res.layer.set("serve.shed", static_cast<double>(sched1.shed - sched0.shed), "count");
    const double busy = exec.mean() * exec.count() * 1e-3 / (plan.program * phase_s);
    res.layer.set("serve.worker_busy_share", busy, "ratio");

    // Direct calls on the first 16 corpus tensors, mode 0, interleaved
    // across tensors; one thread, the engine's per-job budget.  build[k]
    // and kern[k] follow kKinds; only the first three kinds have plans.
    pasta::ThreadBudgetScope one(1);
    const std::size_t sample = std::min<std::size_t>(16, corpus.size());
    constexpr int kReps = 15;
    std::vector<double> fp_us, build[3], kern[4];
    for (int rep = 0; rep < kReps; ++rep)
        for (std::size_t t = 0; t < sample; ++t) {
            const pasta::CooTensor& x = *corpus[t];
            fp_us.push_back(1e6 * time_s([&] { (void)pasta::serve::tensor_fingerprint(x); }));
            std::shared_ptr<const pasta::serve::Plan> p[3];
            for (int k = 0; k < 3; ++k)
                build[k].push_back(1e3 * time_s([&] {
                    p[k] = pasta::serve::build_plan(x, kKinds[k].kernel, kKinds[k].format, 0, kBlockBits);
                }));
            pasta::Rng rng(t + 1);
            const pasta::DenseVector v = pasta::DenseVector::random(x.dim(0), rng);
            std::vector<pasta::DenseMatrix> mats;
            pasta::FactorList factors;
            for (std::size_t m = 0; m < x.order(); ++m)
                mats.push_back(pasta::DenseMatrix::random(x.dim(m), kRank, rng));
            for (const auto& m : mats)
                factors.push_back(&m);
            pasta::CooTensor ttv_c = p[0]->ttv_coo->out_pattern;
            pasta::HiCooTensor ttv_h = p[1]->ttv_hicoo->out_pattern;
            pasta::DenseMatrix out(x.dim(0), kRank);
            kern[0].push_back(1e6 * time_s([&] { pasta::ttv_exec_coo(*p[0]->ttv_coo, v, ttv_c); }));
            kern[1].push_back(1e6 * time_s([&] { pasta::ttv_exec_hicoo(*p[1]->ttv_hicoo, v, ttv_h); }));
            kern[2].push_back(1e6 * time_s([&] { pasta::mttkrp_hicoo(*p[2]->mttkrp_hicoo, factors, 0, out); }));
            kern[3].push_back(1e6 * time_s([&] { pasta::mttkrp_coo_privatized(x, factors, 0, out); }));
        }
    res.layer.set("serve.fingerprint_us", median(fp_us), "us");
    res.layer.set("serve.build_plan_ttv_coo_ms", median(build[0]), "ms");
    res.layer.set("serve.build_plan_ttv_hicoo_ms", median(build[1]), "ms");
    res.layer.set("serve.build_plan_mttkrp_hicoo_ms", median(build[2]), "ms");
    res.layer.set("serve.kernel_ttv_coo_us", median(kern[0]), "us");
    res.layer.set("serve.kernel_ttv_hicoo_us", median(kern[1]), "us");
    res.layer.set("serve.kernel_mttkrp_hicoo_us", median(kern[2]), "us");
    res.layer.set("serve.kernel_mttkrp_coo_us", median(kern[3]), "us");

    const double plain_rate = plain_n / plain_s, traced_rate = traced_n / traced_s;
    const double overhead = 100 * (plain_rate - traced_rate) / plain_rate;
    res.layer.set("obs.trace_overhead_pct", overhead, "%");

    // Table: a job's latency is its queue wait plus its execution; inside
    // execution the direct-call medians estimate the kernel and, per miss,
    // the plan build, weighted by the request mix.  The rest is shown as
    // unattributed.
    const double mean_lat = lat.mean(), mean_wait = wait.mean();
    double kernel_us = 0, build_ms = 0, planned = 0, flops = 0, bytes = 0;
    for (std::size_t t = 0; t < sample; ++t) {
        const GenTensor& g = gens[t];
        const std::size_t blocks = count_blocks(g, kBlockBits), fibers = count_fibers(g, 0);
        for (const Kind& k : kKinds) {
            const Cost c = table1_cost(k.kernel == ServeKernel::kTtv ? Kern::kTtv : Kern::kMttkrp,
                                       k.format == ServeFormat::kHicoo, g.order(), g.nnz(),
                                       fibers, blocks, kRank);
            flops += k.share() * c.flops / static_cast<double>(sample);
            bytes += k.share() * c.bytes / static_cast<double>(sample);
        }
    }
    for (int k = 0; k < 4; ++k)
        kernel_us += kKinds[k].share() * median(kern[k]);
    for (int k = 0; k < 3; ++k) {
        build_ms += kKinds[k].share() * median(build[k]);
        planned += kKinds[k].share();
    }
    build_ms /= planned;  // a miss builds one of the planned kinds
    const double builds_per_job = misses / static_cast<double>(std::max<std::size_t>(jobs, 1));
    const double est_kernel = kernel_us * 1e-3, est_build = builds_per_job * build_ms;
    const double rest = mean_lat - mean_wait - est_kernel - est_build;
    std::ostringstream table;
    char line[200];
    table << "per-layer table, " << name << " (" << jobs << " jobs, mean latency "
          << fmt(mean_lat, 4) << " ms)\n"
          << "  layer                          mean ms/job   share   Table I flops  computed bytes  OI flop/B\n";
    auto row = [&](const char* label, double ms, double f, double b) {
        if (f > 0)
            std::snprintf(line, sizeof(line), "  %-30s %11.4f %6.1f%% %15.0f %15.0f %10.4f\n",
                          label, ms, 100 * ms / mean_lat, f, b, f / b);
        else
            std::snprintf(line, sizeof(line), "  %-30s %11.4f %6.1f%%\n", label, ms,
                          100 * ms / mean_lat);
        table << line;
    };
    row("serve.wait (queue)", mean_wait, 0, 0);
    row("serve.kernel (direct calls)", est_kernel, flops, bytes);
    row("serve.build_plan (x miss rate)", est_build, 0, 0);
    row("unattributed", rest, 0, 0);
    table << "  cache hit ratio " << fmt(hits / std::max(1.0, hits + misses), 4)
          << ", worker busy share " << fmt(busy, 3) << ", client submit time "
          << fmt(submit_s * 1e3 / std::max<std::size_t>(traced_n, 1), 5) << " ms/job (traced rounds)\n"
          << "  tracing overhead: untraced " << fmt(plain_rate, 1) << " op/s, traced "
          << fmt(traced_rate, 1) << " op/s, " << fmt(overhead, 2) << "%\n";
    res.table = table.str();
    return res;
}

}  // namespace perfbench
