#include "checks.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "serve/job.hpp"

namespace perfbench {

namespace {

template <typename... Parts>
std::string
say(const Parts&... parts)
{
    std::ostringstream out;
    out.precision(9);
    (out << ... << parts);
    return out.str();
}

/// Finds or adds the reference row of `key`.
std::uint32_t
row_for(Reference& ref, std::uint64_t key, std::vector<std::size_t>& terms)
{
    const auto [it, added] =
        ref.row_of.emplace(key, static_cast<std::uint32_t>(ref.row_of.size()));
    if (added) {
        ref.sum.resize(ref.sum.size() + ref.cols, 0.0);
        ref.abs.resize(ref.abs.size() + ref.cols, 0.0);
        terms.push_back(0);
    }
    return it->second;
}

void
finish_terms(Reference& ref, const std::vector<std::size_t>& terms)
{
    for (std::size_t n : terms)
        ref.max_terms = std::max(ref.max_terms, n);
}

}  // namespace

pasta::CooTensor
to_coo(const GenTensor& g)
{
    pasta::CooTensor x(std::vector<pasta::Index>(g.dims.begin(), g.dims.end()));
    x.reserve(g.nnz());
    pasta::Coordinate c(g.order());
    for (std::size_t p = 0; p < g.nnz(); ++p) {
        for (std::size_t m = 0; m < g.order(); ++m)
            c[m] = g.idx[m][p];
        x.append(c, g.vals[p]);
    }
    return x;
}

std::string
check_ts(const std::vector<float>& x, const std::vector<float>& out, float s)
{
    if (x.size() != out.size())
        return say("TS: ", out.size(), " outputs for ", x.size(), " inputs");
    for (std::size_t i = 0; i < x.size(); ++i)
        if (out[i] != s * x[i])
            return say("TS: value ", i, " is ", out[i], ", expected ", s * x[i]);
    return "";
}

std::string
check_tew(const std::vector<float>& x, const std::vector<float>& out)
{
    if (x.size() != out.size())
        return say("TEW: ", out.size(), " outputs for ", x.size(), " inputs");
    for (std::size_t i = 0; i < x.size(); ++i)
        if (out[i] != x[i] + x[i])
            return say("TEW: value ", i, " is ", out[i], ", expected ",
                       x[i] + x[i]);
    return "";
}

double
Reference::gamma(int threads) const
{
    const double k = static_cast<double>(max_terms + order + 2) +
                     static_cast<double>(threads);
    const double u = 0x1p-24;
    return k * u / (1.0 - k * u);
}

Reference
ref_ttv(const GenTensor& t, std::size_t mode, const pasta::DenseVector& v)
{
    const Packer key(t.dims, mode);
    Reference ref;
    ref.order = t.order();
    std::vector<std::size_t> terms;
    for (std::size_t p = 0; p < t.nnz(); ++p) {
        const std::uint32_t row = row_for(ref, key.of_input(t, p), terms);
        const double term = static_cast<double>(t.vals[p]) *
                            static_cast<double>(v[t.idx[mode][p]]);
        ref.sum[row] += term;
        ref.abs[row] += std::fabs(term);
        ++terms[row];
    }
    finish_terms(ref, terms);
    return ref;
}

Reference
ref_ttm(const GenTensor& t, std::size_t mode, const pasta::DenseMatrix& u)
{
    const Packer key(t.dims, mode);
    Reference ref;
    ref.order = t.order();
    ref.cols = u.cols();
    std::vector<std::size_t> terms;
    for (std::size_t p = 0; p < t.nnz(); ++p) {
        const std::uint32_t row = row_for(ref, key.of_input(t, p), terms);
        const float* urow = u.row(t.idx[mode][p]);
        for (std::size_t c = 0; c < ref.cols; ++c) {
            const double term = static_cast<double>(t.vals[p]) *
                                static_cast<double>(urow[c]);
            ref.sum[row * ref.cols + c] += term;
            ref.abs[row * ref.cols + c] += std::fabs(term);
        }
        ++terms[row];
    }
    finish_terms(ref, terms);
    return ref;
}

Reference
ref_mttkrp(const GenTensor& t, std::size_t mode,
           const std::vector<const pasta::DenseMatrix*>& u)
{
    Reference ref;
    ref.order = t.order();
    ref.cols = u[mode]->cols();
    std::vector<std::size_t> terms;
    for (std::uint32_t i = 0; i < t.dims[mode]; ++i)
        row_for(ref, i, terms);
    std::vector<double> prod(ref.cols);
    for (std::size_t p = 0; p < t.nnz(); ++p) {
        const std::uint32_t row = t.idx[mode][p];
        std::fill(prod.begin(), prod.end(), static_cast<double>(t.vals[p]));
        for (std::size_t m = 0; m < t.order(); ++m) {
            if (m == mode)
                continue;
            const float* urow = u[m]->row(t.idx[m][p]);
            for (std::size_t c = 0; c < ref.cols; ++c)
                prod[c] *= static_cast<double>(urow[c]);
        }
        for (std::size_t c = 0; c < ref.cols; ++c) {
            ref.sum[row * ref.cols + c] += prod[c];
            ref.abs[row * ref.cols + c] += std::fabs(prod[c]);
        }
        ++terms[row];
    }
    finish_terms(ref, terms);
    return ref;
}

Outputs
outputs_of(const pasta::CooTensor& ttv_out, const Packer& k)
{
    if (ttv_out.order() != k.slots())
        throw std::runtime_error("TTV-COO output has the wrong order");
    Outputs out(ttv_out.nnz());
    std::vector<std::uint32_t> slots(k.slots());
    for (std::size_t p = 0; p < ttv_out.nnz(); ++p) {
        for (std::size_t s = 0; s < slots.size(); ++s)
            slots[s] = ttv_out.index(s, p);
        out[p] = {k.of_slots(slots.data()), 0, ttv_out.value(p)};
    }
    return out;
}

Outputs
outputs_of(const pasta::HiCooTensor& ttv_out, const Packer& k)
{
    if (ttv_out.order() != k.slots())
        throw std::runtime_error("TTV-HiCOO output has the wrong order");
    Outputs out;
    out.reserve(ttv_out.nnz());
    std::vector<std::uint32_t> slots(k.slots());
    const auto& bptr = ttv_out.bptr();
    for (std::size_t b = 0; b < ttv_out.num_blocks(); ++b)
        for (std::size_t p = bptr[b]; p < bptr[b + 1]; ++p) {
            for (std::size_t s = 0; s < slots.size(); ++s)
                slots[s] = ttv_out.coordinate(s, b, p);
            out.push_back({k.of_slots(slots.data()), 0, ttv_out.value(p)});
        }
    return out;
}

Outputs
outputs_of(const pasta::ScooTensor& ttm_out, const Packer& k)
{
    if (ttm_out.sparse_modes().size() != k.slots() ||
        ttm_out.dense_modes().size() != 1)
        throw std::runtime_error("TTM-COO output has the wrong shape");
    const std::size_t r = ttm_out.stripe_volume();
    Outputs out;
    out.reserve(ttm_out.num_sparse() * r);
    std::vector<std::uint32_t> slots(k.slots());
    for (std::size_t p = 0; p < ttm_out.num_sparse(); ++p) {
        for (std::size_t s = 0; s < slots.size(); ++s)
            slots[s] = ttm_out.sparse_index(s, p);
        const std::uint64_t key = k.of_slots(slots.data());
        const float* stripe = ttm_out.stripe(p);
        for (std::size_t c = 0; c < r; ++c)
            out.push_back({key, static_cast<std::uint32_t>(c), stripe[c]});
    }
    return out;
}

Outputs
outputs_of(const pasta::SHiCooTensor& ttm_out, const Packer& k)
{
    if (ttm_out.sparse_modes().size() != k.slots() ||
        ttm_out.dense_modes().size() != 1)
        throw std::runtime_error("TTM-HiCOO output has the wrong shape");
    const std::size_t r = ttm_out.stripe_volume();
    Outputs out;
    out.reserve(ttm_out.num_sparse() * r);
    std::vector<std::uint32_t> slots(k.slots());
    const auto& bptr = ttm_out.bptr();
    for (std::size_t b = 0; b < ttm_out.num_blocks(); ++b)
        for (std::size_t p = bptr[b]; p < bptr[b + 1]; ++p) {
            for (std::size_t s = 0; s < slots.size(); ++s)
                slots[s] = ttm_out.sparse_coordinate(s, b, p);
            const std::uint64_t key = k.of_slots(slots.data());
            const float* stripe = ttm_out.stripe(p);
            for (std::size_t c = 0; c < r; ++c)
                out.push_back({key, static_cast<std::uint32_t>(c), stripe[c]});
        }
    return out;
}

Outputs
outputs_of(const pasta::DenseMatrix& mttkrp_out)
{
    Outputs out;
    out.reserve(mttkrp_out.rows() * mttkrp_out.cols());
    for (std::size_t i = 0; i < mttkrp_out.rows(); ++i)
        for (std::size_t c = 0; c < mttkrp_out.cols(); ++c)
            out.push_back({i, static_cast<std::uint32_t>(c), mttkrp_out(i, c)});
    return out;
}

std::string
check_outputs(const Reference& ref, const Outputs& out, int threads)
{
    const double g = ref.gamma(threads);
    std::vector<unsigned char> seen(ref.sum.size(), 0);
    std::vector<double> col_out(ref.cols, 0.0);
    for (const OutEntry& e : out) {
        const auto it = ref.row_of.find(e.key);
        if (it == ref.row_of.end() || e.col >= ref.cols)
            return say("output element (key ", e.key, ", col ", e.col,
                       ") has no reference element");
        const std::size_t i = it->second * ref.cols + e.col;
        if (seen[i]++)
            return say("output element (key ", e.key, ", col ", e.col,
                       ") appears twice");
        const double bound = g * ref.abs[i];
        const double gap = std::fabs(static_cast<double>(e.value) - ref.sum[i]);
        if (!(gap <= bound))
            return say("output element (key ", e.key, ", col ", e.col, ") is ",
                       e.value, ", reference ", ref.sum[i], ", gap ", gap,
                       " > bound ", bound);
        col_out[e.col] += static_cast<double>(e.value);
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        if (!seen[i])
            return say("reference element ", i / ref.cols, ",", i % ref.cols,
                       " is missing from the output");
    for (std::size_t c = 0; c < ref.cols; ++c) {
        double want = 0, abs = 0;
        for (std::size_t r = 0; r < ref.rows(); ++r) {
            want += ref.sum[r * ref.cols + c];
            abs += ref.abs[r * ref.cols + c];
        }
        const double bound = g * abs + 1e-12 * abs;
        if (!(std::fabs(col_out[c] - want) <= bound))
            return say("column ", c, " totals ", col_out[c], ", reference ",
                       want, ", bound ", bound);
    }
    return "";
}

std::string
check_agree(const Reference& ref, const Outputs& coo, const Outputs& hicoo,
            int threads)
{
    const double g = ref.gamma(threads);
    std::vector<double> a(ref.sum.size(), NAN), b(ref.sum.size(), NAN);
    for (const auto& [out, into] :
         {std::pair{&coo, &a}, std::pair{&hicoo, &b}})
        for (const OutEntry& e : *out) {
            const auto it = ref.row_of.find(e.key);
            if (it == ref.row_of.end() || e.col >= ref.cols)
                return say("COO/HiCOO: element (key ", e.key, ", col ", e.col,
                           ") has no reference element");
            (*into)[it->second * ref.cols + e.col] = e.value;
        }
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!(std::fabs(a[i] - b[i]) <= 2 * g * ref.abs[i]))
            return say("COO/HiCOO disagree at element ", i / ref.cols, ",",
                       i % ref.cols, ": ", a[i], " vs ", b[i]);
    return "";
}

std::string
check_serving(const std::vector<JobRecord>& jobs,
              const std::vector<std::uint64_t>& expected,
              std::uint64_t accepted, std::uint64_t done, std::uint64_t failed)
{
    using pasta::serve::JobState;
    if (jobs.size() != accepted)
        return say("serving: ", jobs.size(), " job records for ", accepted,
                   " accepted jobs");
    std::unordered_set<std::uint64_t> ids;
    std::uint64_t seen_done = 0, seen_failed = 0;
    for (const JobRecord& j : jobs) {
        if (!ids.insert(j.id).second)
            return say("serving: job ", j.id, " recorded twice");
        if (j.state == static_cast<int>(JobState::kDone)) {
            ++seen_done;
            if (j.request >= expected.size() ||
                j.checksum != expected[j.request])
                return say("serving: job ", j.id, " (request ", j.request,
                           ") checksum ", j.checksum,
                           " differs from the direct run");
        } else if (j.state == static_cast<int>(JobState::kFailed)) {
            ++seen_failed;
        } else {
            return say("serving: job ", j.id, " never reached a terminal state");
        }
    }
    if (seen_done != done || seen_failed != failed)
        return say("serving: records show ", seen_done, " done / ", seen_failed,
                   " failed, the engine ", done, " / ", failed);
    if (done + failed != accepted)
        return say("serving: ", accepted, " accepted but ", done + failed,
                   " terminal");
    return "";
}

}  // namespace perfbench
