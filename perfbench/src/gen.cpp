#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {

namespace {

/// Per-mode cumulative weights for inverse-CDF sampling.
std::vector<double>
cumulative(std::uint32_t dim, double alpha)
{
    std::vector<double> cdf(dim);
    double acc = 0;
    for (std::uint32_t i = 0; i < dim; ++i) {
        acc += alpha == 0 ? 1.0 : std::pow(static_cast<double>(i) + 1.0, -alpha);
        cdf[i] = acc;
    }
    return cdf;
}

std::uint32_t
sample(const std::vector<double>& cdf, Rng& rng)
{
    const double u = rng.unit() * cdf.back();
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1));
}

}  // namespace

Packer::Packer(const std::vector<std::uint32_t>& dims, std::size_t skip)
    : skip_(skip), shift_(dims.size()), width_(dims.size())
{
    unsigned total = 0;
    for (std::size_t m = dims.size(); m-- > 0;) {
        while (m != skip && width_[m] < 32 && (std::uint64_t{1} << width_[m]) < dims[m])
            ++width_[m];
        shift_[m] = total;
        total += width_[m];
    }
    if (total > 64)
        throw std::invalid_argument("tensor shape needs more than 64 key bits");
}

std::uint64_t
Packer::of_input(const GenTensor& t, std::size_t pos) const
{
    std::uint64_t key = 0;
    for (std::size_t m = 0; m < shift_.size(); ++m)
        if (m != skip_)
            key |= static_cast<std::uint64_t>(t.idx[m][pos]) << shift_[m];
    return key;
}

std::uint64_t
Packer::of_slots(const std::uint32_t* slots) const
{
    std::uint64_t key = 0;
    for (std::size_t m = 0; m < shift_.size(); ++m)
        if (m != skip_)
            key |= static_cast<std::uint64_t>(*slots++) << shift_[m];
    return key;
}

std::uint32_t
Packer::coordinate(std::uint64_t key, std::size_t m) const
{
    const std::uint64_t mask = width_[m] == 0 ? 0 : (~std::uint64_t{0} >> (64 - width_[m]));
    return static_cast<std::uint32_t>((key >> shift_[m]) & mask);
}

std::uint64_t
mix_seed(std::uint64_t seed, std::uint64_t label)
{
    Rng r(seed ^ (label * 0xD1B54A32D192ED03ULL));
    r.next();
    return r.next();
}

GenTensor
generate(const TensorSpec& spec, std::uint64_t seed)
{
    const std::size_t order = spec.dims.size();
    const Packer packer(spec.dims);
    std::vector<std::vector<double>> cdf;
    for (std::size_t m = 0; m < order; ++m)
        cdf.push_back(cumulative(spec.dims[m], spec.alpha[m]));

    Rng rng(seed);
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(spec.nnz * 2);
    std::vector<std::uint64_t> keys;
    keys.reserve(spec.nnz);
    std::vector<std::uint32_t> coords(order);
    std::size_t draws = 0;
    while (keys.size() < spec.nnz) {
        if (++draws > 50 * spec.nnz + 1000)
            throw std::runtime_error("generator: " + spec.name +
                                     " cannot hold its non-zero count");
        for (std::size_t m = 0; m < order; ++m)
            coords[m] = sample(cdf[m], rng);
        const std::uint64_t key = packer.of_slots(coords.data());
        if (seen.insert(key).second)
            keys.push_back(key);
    }
    // Values follow draw order, so they do not depend on the sort below.
    std::vector<std::pair<std::uint64_t, float>> entries(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        entries[i] = {keys[i], rng.value(0.5f)};
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    GenTensor t;
    t.dims = spec.dims;
    t.draws = draws;
    t.idx.assign(order, std::vector<std::uint32_t>(entries.size()));
    t.vals.resize(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        for (std::size_t m = 0; m < order; ++m)
            t.idx[m][i] = packer.coordinate(entries[i].first, m);
        t.vals[i] = entries[i].second;
    }
    return t;
}

std::vector<TensorSpec>
paper_specs()
{
    return {
        {"A-nell2-r2", {1200, 900, 2900}, 56000, {0.7, 0.7, 0.7}},
        {"B-4d-longmode", {8, 2400, 1800, 160000}, 32000, {0.0, 0.6, 0.6, 0.4}},
    };
}

std::vector<TensorSpec>
corpus_specs(std::size_t count)
{
    // bench/bench_serving's corpus shapes: varied tiny 3rd-order tensors of
    // 16384 uniformly drawn non-zeros, fixed by the tensor's position (not
    // by the run seed), so every seed serves the same mix of job sizes.
    std::vector<TensorSpec> specs;
    specs.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        specs.push_back({"corpus" + std::to_string(i),
                         {static_cast<std::uint32_t>(48 + 16 * (i % 4)),
                          static_cast<std::uint32_t>(40 + 8 * (i % 3)),
                          static_cast<std::uint32_t>(32 + 8 * (i % 5))},
                         16384,
                         {0.0, 0.0, 0.0}});
    return specs;
}

void
write_tns(const std::string& path, const GenTensor& t)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "%zu\n", t.order());
    for (std::size_t m = 0; m < t.order(); ++m)
        std::fprintf(f, "%u%c", t.dims[m], m + 1 == t.order() ? '\n' : ' ');
    for (std::size_t i = 0; i < t.nnz(); ++i) {
        for (std::size_t m = 0; m < t.order(); ++m)
            std::fprintf(f, "%u ", t.idx[m][i] + 1);
        std::fprintf(f, "%.9g\n", static_cast<double>(t.vals[i]));
    }
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot finish writing " + path);
}

std::size_t
count_fibers(const GenTensor& t, std::size_t mode)
{
    const Packer packer(t.dims, mode);
    std::vector<std::uint64_t> keys(t.nnz());
    for (std::size_t i = 0; i < t.nnz(); ++i)
        keys[i] = packer.of_input(t, i);
    std::sort(keys.begin(), keys.end());
    return static_cast<std::size_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
}

std::size_t
count_blocks(const GenTensor& t, unsigned block_bits)
{
    GenTensor shifted;
    shifted.dims = t.dims;
    for (auto& d : shifted.dims)
        d = (d >> block_bits) + 1;
    shifted.idx = t.idx;
    for (auto& mode : shifted.idx)
        for (auto& i : mode)
            i >>= block_bits;
    shifted.vals.resize(t.nnz());
    return count_fibers(shifted, Packer::kNone);  // no mode skipped
}

const char*
kern_name(Kern k)
{
    switch (k) {
      case Kern::kTew: return "tew";
      case Kern::kTs: return "ts";
      case Kern::kTtv: return "ttv";
      case Kern::kTtm: return "ttm";
      case Kern::kMttkrp: return "mttkrp";
    }
    return "?";
}

Cost
table1_cost(Kern k, bool hicoo, std::size_t order, std::size_t nnz,
            std::size_t fibers, std::size_t blocks, std::size_t rank)
{
    const double m = static_cast<double>(nnz);
    const double mf = static_cast<double>(fibers);
    const double nb = static_cast<double>(blocks);
    const double n = static_cast<double>(order);
    const double r = static_cast<double>(rank);
    switch (k) {
      case Kern::kTew: return {m, 12 * m};
      case Kern::kTs: return {m, 8 * m};
      case Kern::kTtv: return {2 * m, 12 * m + 12 * mf};
      case Kern::kTtm:
        return {2 * m * r, 4 * m * r + 4 * mf * r + 8 * m + (hicoo ? 8 : 16) * mf};
      case Kern::kMttkrp:
        if (!hicoo)
            return {n * m * r, 4 * n * m * r + 4 * (n + 1) * m};
        return {n * m * r, 4 * n * r * std::min(nb * 128.0, m) + (4 + n) * m +
                               (4 * n + 8) * nb};
    }
    return {};
}

}  // namespace perfbench
