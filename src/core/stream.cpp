#include "core/stream.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/log.hpp"
#include "common/membudget.hpp"
#include "common/parallel.hpp"
#include "core/sort_radix.hpp"
#include "kernels/ttv.hpp"
#include "obs/metrics.hpp"

namespace pasta::stream {

namespace {

/// Stack budget for the per-run accumulator row, matching the parallel
/// MTTKRP kernels' limit.
constexpr Size kMaxStackRank = 256;

/// Finest split the planner will consider: 2^12 partitions.
constexpr unsigned kMaxPartitionBits = 12;

/// Working-set bytes charged for a chunk of `n` non-zeros: the gathered
/// COO arrays, a per-chunk sorted copy (TTV planning copies the chunk),
/// and radix key + permutation + apply scratch.  Deliberately
/// conservative — every governor probe a chunk triggers stays at or
/// under this figure, which is what lets tests assert peak <= budget.
std::uint64_t
chunk_cost(Size order, Size n)
{
    return 2 * membudget::coo_bytes(order, n) + std::uint64_t{24} * n;
}

/// Remaining governor budget to plan chunks against; with no budget
/// armed, an eighth of the tensor's full cost (so direct calls to the
/// stream kernels still exercise a real multi-partition sweep).
std::uint64_t
default_chunk_budget(const MappedCooTensor& x)
{
    auto& gov = membudget::MemGovernor::instance();
    if (gov.enabled()) {
        const std::uint64_t budget = gov.budget();
        const std::uint64_t held = gov.reserved();
        return budget > held ? budget - held : 0;
    }
    const std::uint64_t full = chunk_cost(x.order(), x.nnz());
    return std::max(full / 8, chunk_cost(x.order(), Size{1} << 16));
}

std::string
stream_variant_name(const char* kernel, Size partitions)
{
    return std::string(kernel) + "_stream_p" + std::to_string(partitions);
}

void
note_decision(const StreamDecision& d)
{
    // Open-valued label, decided once per out-of-core operation: the
    // by-name lookup is the one place a recording takes the registry lock.
    obs::metrics::LabelCounter("stream.variant", d.variant).add();
    static const obs::metrics::Counter partitions("stream.partitions");
    partitions.add(d.partitions);
}

/// Checkpoint file layout (all little-endian host-order):
///   magic "PSCK" | u32 version | u64 mode | u64 partitions | u64 done |
///   u64 rows | u64 cols | Value data[rows*cols] | u64 fnv64(fields+data)
/// Written to a temp path and renamed, so a kill mid-write can never
/// leave a half-written file that parses.
constexpr char kCkptMagic[4] = {'P', 'S', 'C', 'K'};
constexpr std::uint32_t kCkptVersion = 1;

std::uint64_t
ckpt_checksum(std::uint64_t mode, std::uint64_t partitions,
              std::uint64_t done, std::uint64_t rows, std::uint64_t cols,
              const Value* data)
{
    std::uint64_t h = fnv1a64(&mode, sizeof(mode));
    h = fnv1a64(&partitions, sizeof(partitions), h);
    h = fnv1a64(&done, sizeof(done), h);
    h = fnv1a64(&rows, sizeof(rows), h);
    h = fnv1a64(&cols, sizeof(cols), h);
    return fnv1a64(data, rows * cols * sizeof(Value), h);
}

void
save_mttkrp_checkpoint(const std::string& path, Size mode, Size partitions,
                       Size done, const DenseMatrix& out)
{
    const std::uint64_t m = mode, p = partitions, d = done,
                        r = out.rows(), c = out.cols();
    std::string buf;
    buf.reserve(sizeof(kCkptMagic) + sizeof(kCkptVersion) +
                5 * sizeof(std::uint64_t) + r * c * sizeof(Value) +
                sizeof(std::uint64_t));
    const auto put = [&buf](const void* src, std::size_t n) {
        buf.append(static_cast<const char*>(src), n);
    };
    put(kCkptMagic, sizeof(kCkptMagic));
    put(&kCkptVersion, sizeof(kCkptVersion));
    put(&m, sizeof(m));
    put(&p, sizeof(p));
    put(&d, sizeof(d));
    put(&r, sizeof(r));
    put(&c, sizeof(c));
    put(out.data(), r * c * sizeof(Value));
    const std::uint64_t sum = ckpt_checksum(m, p, d, r, c, out.data());
    put(&sum, sizeof(sum));
    // tmp + fsync + rename + dir fsync: a kill (or power loss) at any
    // point leaves either the previous checkpoint or this one, never a
    // half-written file that parses or a rename the disk forgot.
    fsutil::write_file_durable(path, buf);
}

/// Loads a checkpoint matching (mode, partitions, out shape); returns
/// false — leaving `out` untouched — for a missing, stale, mismatched,
/// or corrupt file, so a bad checkpoint degrades to a fresh sweep
/// instead of poisoning the result.
bool
load_mttkrp_checkpoint(const std::string& path, Size mode, Size partitions,
                       DenseMatrix& out, Size& done)
{
    std::ifstream f(path, std::ios::binary);
    if (!f.good())
        return false;
    char magic[4];
    std::uint32_t version = 0;
    std::uint64_t m = 0, p = 0, d = 0, r = 0, c = 0;
    f.read(magic, sizeof(magic));
    f.read(reinterpret_cast<char*>(&version), sizeof(version));
    f.read(reinterpret_cast<char*>(&m), sizeof(m));
    f.read(reinterpret_cast<char*>(&p), sizeof(p));
    f.read(reinterpret_cast<char*>(&d), sizeof(d));
    f.read(reinterpret_cast<char*>(&r), sizeof(r));
    f.read(reinterpret_cast<char*>(&c), sizeof(c));
    if (!f.good() || std::memcmp(magic, kCkptMagic, 4) != 0 ||
        version != kCkptVersion || m != mode || p != partitions ||
        d > p || r != out.rows() || c != out.cols())
        return false;
    std::vector<Value> data(r * c);
    f.read(reinterpret_cast<char*>(data.data()),
           static_cast<std::streamsize>(data.size() * sizeof(Value)));
    std::uint64_t stored = 0;
    f.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (!f.good() ||
        stored != ckpt_checksum(m, p, d, r, c, data.data()))
        return false;
    std::memcpy(out.data(), data.data(), data.size() * sizeof(Value));
    done = d;
    return true;
}

}  // namespace

PartitionPlan
plan_partitions(const MappedCooTensor& x, Size lead_mode,
                std::uint64_t chunk_budget_bytes, Size max_partitions)
{
    PASTA_CHECK_MSG(lead_mode < x.order(),
                    "lead mode " << lead_mode << " out of range");
    PartitionPlan plan;
    plan.lead_mode = lead_mode;

    const unsigned dim_bits = radix::bits_for(x.dim(lead_mode));
    unsigned finest_bits = std::min(dim_bits, kMaxPartitionBits);
    while (finest_bits > 0 &&
           (Size{1} << finest_bits) > std::max<Size>(max_partitions, 1))
        --finest_bits;
    const Size finest = Size{1} << finest_bits;

    // One pass over the lead index column builds the finest histogram;
    // every coarser candidate P aggregates adjacent groups of it.
    std::vector<Size> hist(finest, 0);
    const unsigned finest_shift = dim_bits - finest_bits;
    const Index* lead = x.mode_indices(lead_mode);
    for (Size pos = 0; pos < x.nnz(); ++pos)
        ++hist[static_cast<std::uint64_t>(lead[pos]) >> finest_shift];

    for (unsigned bits = 0;; ++bits) {
        const Size parts = Size{1} << bits;
        const Size group = finest / parts;
        std::vector<Size> counts(parts, 0);
        Size max_count = 0;
        for (Size i = 0; i < parts; ++i) {
            for (Size g = 0; g < group; ++g)
                counts[i] += hist[i * group + g];
            max_count = std::max(max_count, counts[i]);
        }
        const std::uint64_t worst = chunk_cost(x.order(), max_count);
        if (chunk_budget_bytes == 0 || worst <= chunk_budget_bytes ||
            bits == finest_bits) {
            if (chunk_budget_bytes != 0 && worst > chunk_budget_bytes) {
                std::ostringstream oss;
                oss << "out-of-core plan infeasible for " << x.path()
                    << ": finest split (" << parts
                    << " partitions on mode " << lead_mode
                    << ") still needs " << worst
                    << " bytes per chunk against " << chunk_budget_bytes
                    << " available (PASTA_MEM_BYTES)";
                throw membudget::HostOomError(oss.str());
            }
            plan.partitions = parts;
            plan.shift = dim_bits - bits;
            plan.counts = std::move(counts);
            plan.max_count = max_count;
            return plan;
        }
    }
}

CooTensor
gather_partition(const MappedCooTensor& x, const PartitionPlan& plan,
                 Size p)
{
    PASTA_CHECK_MSG(p < plan.partitions, "partition " << p
                                                      << " out of range");
    const Size n = plan.counts[p];
    CooTensor chunk(x.dims());
    CooBulkFill fill = chunk.bulk_fill(n);
    const Size order = x.order();
    std::vector<const Index*> src(order);
    for (Size m = 0; m < order; ++m)
        src[m] = x.mode_indices(m);
    const Value* vals = x.values();
    const Index* lead = src[plan.lead_mode];
    Size out = 0;
    for (Size pos = 0; pos < x.nnz(); ++pos) {
        if ((static_cast<std::uint64_t>(lead[pos]) >> plan.shift) != p)
            continue;
        for (Size m = 0; m < order; ++m)
            fill.modes[m][out] = src[m][pos];
        fill.values[out] = vals[pos];
        ++out;
    }
    PASTA_ASSERT(out == n);
    return chunk;
}

StreamDecision
mttkrp_coo_stream(const MappedCooTensor& x, const FactorList& factors,
                  Size mode, DenseMatrix& out, const StreamOptions& opts)
{
    const Size rank = check_factors(x.dims(), factors);
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(out.rows() == x.dim(mode) && out.cols() == rank,
                    "output matrix shape mismatch");
    PASTA_CHECK_MSG(rank <= kMaxStackRank,
                    "rank " << rank << " exceeds kernel limit "
                            << kMaxStackRank);

    // Partitioning by the product mode makes output rows disjoint across
    // partitions: a chunk owns its rows outright, and a checkpointed
    // matrix is complete for every finished partition.
    PartitionPlan plan = plan_partitions(x, mode, default_chunk_budget(x),
                                         opts.max_partitions);

    // Campaign shards sweep a subrange [lo, hi) of the plan; rows are
    // disjoint across partitions, so a range shard owns its output rows
    // outright and ranges union to the full sweep.
    const Size lo = std::min(opts.part_begin, plan.partitions);
    const Size hi = opts.part_end == 0
                        ? plan.partitions
                        : std::min(opts.part_end, plan.partitions);
    PASTA_CHECK_MSG(lo <= hi, "partition range [" << opts.part_begin
                                                  << ", " << opts.part_end
                                                  << ") is inverted");
    const bool ranged = lo != 0 || hi != plan.partitions;

    StreamDecision d;
    d.streamed = true;
    d.partitions = hi - lo;
    d.variant = stream_variant_name("mttkrp", plan.partitions);
    if (ranged)
        d.variant += "_r" + std::to_string(lo) + "-" + std::to_string(hi);
    note_decision(d);

    Size start = lo;
    if (!opts.checkpoint_path.empty()) {
        // A SIGKILL mid-save leaves a stale half-written tmp next to the
        // (still intact) checkpoint; clear it so it can never be
        // mistaken for anything and the next save starts clean.
        std::error_code tmp_ec;
        std::filesystem::remove(opts.checkpoint_path + ".tmp", tmp_ec);
        Size done = 0;
        if (load_mttkrp_checkpoint(opts.checkpoint_path, mode,
                                   plan.partitions, out, done) &&
            done >= lo && done <= hi) {
            start = done;
            d.resumed_from = done - lo;
            PASTA_LOG_INFO << "streaming MTTKRP resuming at partition "
                           << start << "/" << hi << " from "
                           << opts.checkpoint_path;
        } else {
            out.fill(0);
        }
    } else {
        out.fill(0);
    }

    const Size order = x.order();
    for (Size p = start; p < hi; ++p) {
        const Size n = plan.counts[p];
        if (n != 0) {
            // Keys + permutation are the sweep's only scratch beyond the
            // chunk itself; reserving them keeps the governor ledger (and
            // the peak the tests assert on) honest.
            membudget::MemReservation scratch(std::uint64_t{16} * n,
                                              "stream.mttkrp.scratch");
            const CooTensor chunk = gather_partition(x, plan, p);
            std::vector<std::uint64_t> keys(n);
            const Index* rows = chunk.mode_indices(mode).data();
            for (Size q = 0; q < n; ++q)
                keys[q] = rows[q];
            std::vector<Size> perm;
            radix::sort_perm(keys, perm);

            // Row runs over the sorted keys.  The sort is stable, so
            // walking a run through `perm` visits that row's non-zeros in
            // stream order; accumulating serially within the run then
            // reproduces mttkrp_coo_seq's additions exactly, while
            // distinct runs (distinct output rows) go parallel freely.
            std::vector<Size> run_ptr;
            run_ptr.push_back(0);
            for (Size q = 1; q < n; ++q)
                if (keys[q] != keys[q - 1])
                    run_ptr.push_back(q);
            run_ptr.push_back(n);

            parallel_for(
                0, run_ptr.size() - 1, Schedule::kDynamic,
                [&](Size ri) {
                    Value acc[kMaxStackRank];
                    const Index row =
                        rows[perm[run_ptr[ri]]];
                    Value* out_row = out.row(row);
                    for (Size q = run_ptr[ri]; q < run_ptr[ri + 1]; ++q) {
                        const Size pos = perm[q];
                        const Value xval = chunk.value(pos);
                        for (Size r = 0; r < rank; ++r)
                            acc[r] = xval;
                        for (Size m = 0; m < order; ++m) {
                            if (m == mode)
                                continue;
                            const Value* frow =
                                factors[m]->row(chunk.index(m, pos));
                            for (Size r = 0; r < rank; ++r)
                                acc[r] *= frow[r];
                        }
                        for (Size r = 0; r < rank; ++r)
                            out_row[r] += acc[r];
                    }
                },
                1);
        }
        if (!opts.checkpoint_path.empty())
            save_mttkrp_checkpoint(opts.checkpoint_path, mode,
                                   plan.partitions, p + 1, out);
        if (opts.progress)
            opts.progress(p + 1 - lo, hi - lo);
    }
    return d;
}

Size
mttkrp_partition_count(const MappedCooTensor& x, Size mode,
                       Size max_partitions)
{
    return plan_partitions(x, mode, default_chunk_budget(x),
                           max_partitions)
        .partitions;
}

StreamDecision
ttv_coo_stream(const MappedCooTensor& x, const DenseVector& v, Size mode,
               CooTensor& out, const StreamOptions& opts)
{
    PASTA_CHECK_MSG(x.order() >= 2, "TTV needs an order >= 2 tensor");
    PASTA_CHECK_MSG(mode < x.order(), "mode " << mode << " out of range");
    PASTA_CHECK_MSG(v.size() == x.dim(mode),
                    "vector length " << v.size() << " != mode extent "
                                     << x.dim(mode));

    // Lead with the first kept (non-contracted) mode: a fiber fixes all
    // kept coordinates, so no fiber ever spans two partitions, and the
    // kept lead is also the most significant field of the fibers-last
    // sort — chunk outputs concatenate in ttv_coo's exact order.
    const Size lead = mode == 0 ? 1 : 0;
    PartitionPlan plan = plan_partitions(x, lead, default_chunk_budget(x),
                                         opts.max_partitions);
    StreamDecision d;
    d.streamed = true;
    d.partitions = plan.partitions;
    d.variant = stream_variant_name("ttv", plan.partitions);
    note_decision(d);

    std::vector<Index> out_dims;
    for (Size m = 0; m < x.order(); ++m)
        if (m != mode)
            out_dims.push_back(x.dim(m));
    out = CooTensor(std::move(out_dims));

    for (Size p = 0; p < plan.partitions; ++p) {
        if (plan.counts[p] != 0) {
            const CooTensor chunk = gather_partition(x, plan, p);
            const CooTensor piece = ttv_coo(chunk, v, mode);
            for (Size m = 0; m < piece.order(); ++m) {
                const auto& src = piece.mode_indices(m);
                auto& dst = out.mode_indices(m);
                dst.insert(dst.end(), src.begin(), src.end());
            }
            out.values().insert(out.values().end(),
                                piece.values().begin(),
                                piece.values().end());
        }
        if (opts.progress)
            opts.progress(p + 1, plan.partitions);
    }
    return d;
}

StreamDecision
coalesce_streamed(const MappedCooTensor& x, const std::string& out_path,
                  const StreamOptions& opts)
{
    // Lead with mode 0: duplicates agree on every coordinate, so a
    // duplicate run can never straddle partitions, and mode 0 is the
    // most significant field of the lexicographic order — coalesced
    // chunks concatenate into the canonical sorted order directly.
    PartitionPlan plan = plan_partitions(x, 0, default_chunk_budget(x),
                                         opts.max_partitions);
    StreamDecision d;
    d.streamed = true;
    d.partitions = plan.partitions;
    d.variant = stream_variant_name("coalesce", plan.partitions);
    note_decision(d);

    std::vector<std::string> parts;
    for (Size p = 0; p < plan.partitions; ++p) {
        if (plan.counts[p] != 0) {
            CooTensor chunk = gather_partition(x, plan, p);
            chunk.canonicalize(DuplicatePolicy::kSum);
            std::string part = out_path + ".part" + std::to_string(p);
            write_binary_file(part, chunk);
            parts.push_back(std::move(part));
        }
        if (opts.progress)
            opts.progress(p + 1, plan.partitions);
    }
    concat_binary_files(out_path, x.dims(), parts);
    for (const std::string& part : parts)
        std::remove(part.c_str());
    return d;
}

StreamDecision
mttkrp_coo_budgeted(const MappedCooTensor& x, const FactorList& factors,
                    Size mode, DenseMatrix& out, const StreamOptions& opts)
{
    const std::uint64_t full = membudget::coo_bytes(x.order(), x.nnz());
    if (!membudget::degraded() && membudget::would_fit(full)) {
        try {
            const CooTensor t = x.to_coo();
            StreamDecision d;
            d.variant = "mttkrp_inmem";
            note_decision(d);
            mttkrp_coo(t, factors, mode, out);
            return d;
        } catch (const membudget::HostOomError& e) {
            PASTA_LOG_INFO << "in-memory MTTKRP rejected by governor ("
                           << e.what() << "); falling back to streaming";
        }
    }
    return mttkrp_coo_stream(x, factors, mode, out, opts);
}

StreamDecision
ttv_coo_budgeted(const MappedCooTensor& x, const DenseVector& v, Size mode,
                 CooTensor& out, const StreamOptions& opts)
{
    const std::uint64_t full = membudget::coo_bytes(x.order(), x.nnz());
    if (!membudget::degraded() && membudget::would_fit(full)) {
        try {
            const CooTensor t = x.to_coo();
            StreamDecision d;
            d.variant = "ttv_inmem";
            note_decision(d);
            out = ttv_coo(t, v, mode);
            return d;
        } catch (const membudget::HostOomError& e) {
            PASTA_LOG_INFO << "in-memory TTV rejected by governor ("
                           << e.what() << "); falling back to streaming";
        }
    }
    return ttv_coo_stream(x, v, mode, out, opts);
}

StreamDecision
coalesce_budgeted(const MappedCooTensor& x, const std::string& out_path,
                  const StreamOptions& opts)
{
    const std::uint64_t full = membudget::coo_bytes(x.order(), x.nnz());
    if (!membudget::degraded() && membudget::would_fit(full)) {
        try {
            CooTensor t = x.to_coo();
            t.canonicalize(DuplicatePolicy::kSum);
            write_binary_file(out_path, t);
            StreamDecision d;
            d.variant = "coalesce_inmem";
            note_decision(d);
            return d;
        } catch (const membudget::HostOomError& e) {
            PASTA_LOG_INFO << "in-memory coalesce rejected by governor ("
                           << e.what() << "); falling back to streaming";
        }
    }
    return coalesce_streamed(x, out_path, opts);
}

}  // namespace pasta::stream
