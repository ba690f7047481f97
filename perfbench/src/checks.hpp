/// \file
/// Correctness checks, computed apart from the program.
///
/// Every check returns "" when the output passes and a one-line reason
/// otherwise.  References are computed serially in double precision from
/// the benchmark's own generated data and operands, never from library
/// code:
///  - TS and TEW must match s*x and x+x exactly;
///  - TTV, TTM and MTTKRP outputs must match the reference element by
///    element, and per output column in total, within a rounding-error
///    bound gamma_k * sum|terms| (Higham), k = L + N + T + 2 with L the
///    most terms any one output element sums, N the order and T threads;
///  - COO and HiCOO outputs must agree element by element within twice
///    that bound;
///  - every served job must be terminal exactly once and carry the
///    checksum the same request gives outside the engine.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/coo_tensor.hpp"
#include "core/dense.hpp"
#include "core/hicoo_tensor.hpp"
#include "core/scoo_tensor.hpp"
#include "core/shicoo_tensor.hpp"
#include "gen.hpp"

namespace perfbench {

/// The generated tensor as a CooTensor, built through the public API
/// (append), the way a user hands data to the library.
pasta::CooTensor to_coo(const GenTensor& g);

std::string check_ts(const std::vector<float>& x, const std::vector<float>& out,
                     float s);
std::string check_tew(const std::vector<float>& x,
                      const std::vector<float>& out);

/// Double-precision reference of one contraction output.
struct Reference {
    std::size_t cols = 1;
    std::size_t order = 0;
    std::size_t max_terms = 0;  ///< L
    std::unordered_map<std::uint64_t, std::uint32_t> row_of;
    std::vector<double> sum;  ///< [row * cols + c]
    std::vector<double> abs;  ///< sum of |term| per element

    std::size_t rows() const { return row_of.size(); }
    /// gamma_k with k = L + N + threads + 2, unit roundoff 2^-24.
    double gamma(int threads) const;
};

Reference ref_ttv(const GenTensor& t, std::size_t mode,
                  const pasta::DenseVector& v);
Reference ref_ttm(const GenTensor& t, std::size_t mode,
                  const pasta::DenseMatrix& u);
/// `u[m]` is the factor of mode m; every output row 0..dim(mode)-1 exists.
Reference ref_mttkrp(const GenTensor& t, std::size_t mode,
                     const std::vector<const pasta::DenseMatrix*>& u);

/// One output element as the program returned it.
struct OutEntry {
    std::uint64_t key = 0;
    std::uint32_t col = 0;
    float value = 0;
};
using Outputs = std::vector<OutEntry>;

Outputs outputs_of(const pasta::CooTensor& ttv_out, const Packer& k);
Outputs outputs_of(const pasta::HiCooTensor& ttv_out, const Packer& k);
Outputs outputs_of(const pasta::ScooTensor& ttm_out, const Packer& k);
Outputs outputs_of(const pasta::SHiCooTensor& ttm_out, const Packer& k);
Outputs outputs_of(const pasta::DenseMatrix& mttkrp_out);

/// Every output element is present exactly once and within bound of the
/// reference, and every column total is within the summed bound.
std::string check_outputs(const Reference& ref, const Outputs& out,
                          int threads);
/// COO and HiCOO outputs agree element by element within 2 gamma |terms|.
std::string check_agree(const Reference& ref, const Outputs& coo,
                        const Outputs& hicoo, int threads);

/// One served job as recorded by the load generator.
struct JobRecord {
    std::uint64_t id = 0;
    std::uint32_t request = 0;  ///< index into the request table
    int state = 0;              ///< pasta::serve::JobState value
    std::uint64_t checksum = 0;
};

/// Every accepted job is terminal exactly once (records match the
/// engine's own done/failed totals and `accepted`), ids are unique, and
/// every done job's checksum equals expected[request].
std::string check_serving(const std::vector<JobRecord>& jobs,
                          const std::vector<std::uint64_t>& expected,
                          std::uint64_t accepted, std::uint64_t done,
                          std::uint64_t failed);

}  // namespace perfbench
