/// \file
/// The benchmark's own seeded input generator.
///
/// Inputs are made here, from the seed the benchmark is given, and never
/// by the library's own generators (src/gen): a change to the program
/// cannot change what is measured.  Everything is integer arithmetic on a
/// private SplitMix64 stream, so one seed gives the same bytes on every
/// host and compiler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, fully specified, and good enough for input synthesis.
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /// Uniform in [0, bound) (multiply-shift; bias below 2^-32).
    std::uint32_t below(std::uint32_t bound)
    {
        return static_cast<std::uint32_t>(
            ((next() >> 32) * static_cast<std::uint64_t>(bound)) >> 32);
    }

    /// Uniform double in [0, 1) with 53 random bits.
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /// A float in [lo, lo + 1) on a 2^-20 grid, so it prints and parses
    /// back exactly with 9 significant digits.
    float value(float lo) { return lo + static_cast<float>(next() >> 44) * 0x1p-20f; }

  private:
    std::uint64_t state_;
};

/// Mixes a seed with a stream label into an independent seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t label);

/// Make-up of one synthetic tensor: per-mode sizes, target non-zero count
/// and per-mode power-law exponent (0 = uniform).  Index i of a mode is
/// drawn with weight 1/(i+1)^alpha, so low indices are hot.
struct TensorSpec {
    std::string name;
    std::vector<std::uint32_t> dims;
    std::size_t nnz = 0;
    std::vector<double> alpha;
};

/// A generated tensor: lexicographically sorted, duplicate-free, 0-based.
struct GenTensor {
    std::vector<std::uint32_t> dims;
    std::vector<std::vector<std::uint32_t>> idx;  ///< [mode][pos]
    std::vector<float> vals;
    std::size_t draws = 0;  ///< coordinates drawn to get nnz distinct ones

    std::size_t order() const { return dims.size(); }
    std::size_t nnz() const { return vals.size(); }
    /// Bytes of the COO arrays, 4(N+1)M.
    std::size_t coo_bytes() const { return 4 * (order() + 1) * nnz(); }
};

/// Packs a tensor's coordinates into one 64-bit key whose order is
/// lexicographic (mode 0 most significant).  A mode given as `skip` gets
/// no bits and is left out of every key, which gives the coordinates of a
/// TTV or TTM output over that mode.
class Packer {
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};
    /// Throws when the kept modes need more than 64 bits.
    explicit Packer(const std::vector<std::uint32_t>& dims, std::size_t skip = kNone);
    /// Key of non-zero `pos` of `t`.
    std::uint64_t of_input(const GenTensor& t, std::size_t pos) const;
    /// Key of coordinates given for the kept modes, in mode order.
    std::uint64_t of_slots(const std::uint32_t* slots) const;
    /// Coordinate of (kept) mode `m` in `key`.
    std::uint32_t coordinate(std::uint64_t key, std::size_t m) const;
    /// Number of kept modes.
    std::size_t slots() const { return shift_.size() - (skip_ < shift_.size()); }

  private:
    std::size_t skip_;
    std::vector<unsigned> shift_, width_;  ///< per input mode; 0 width at skip
};

/// Draws spec.nnz distinct coordinates from the per-mode power laws and
/// gives each a value in [0.5, 1.5).  Throws when the shape cannot hold
/// that many distinct coordinates within 50 draws per non-zero.
GenTensor generate(const TensorSpec& spec, std::uint64_t seed);

/// The two paper-sweep tensors:
///  A: 3rd order, nell2 (r2) shaped (12k x 9k x 29k scaled by 1/10);
///  B: 4th order with one 8-long mode and one mode far longer than nnz/R.
std::vector<TensorSpec> paper_specs();

/// Serving corpus: `count` tensors shaped like bench/bench_serving's,
/// 3rd order, 48-96 x 40-56 x 32-64 with 16384 uniform non-zeros; the
/// seed draws their contents.
std::vector<TensorSpec> corpus_specs(std::size_t count);

/// Writes FROSTT .tns text (1-based coordinates, ParTI header).
void write_tns(const std::string& path, const GenTensor& t);

/// Structural statistics the Table I formulas need, computed here from
/// the generated data rather than by the library.
std::size_t count_fibers(const GenTensor& t, std::size_t mode);
std::size_t count_blocks(const GenTensor& t, unsigned block_bits);

/// Table I work and computed (not measured) traffic of one call.
struct Cost {
    double flops = 0;
    double bytes = 0;
};
enum class Kern { kTew, kTs, kTtv, kTtm, kMttkrp };
const char* kern_name(Kern k);
/// `fibers` is M_F of the call's mode (TTV/TTM), `blocks` n_b at B = 128.
Cost table1_cost(Kern k, bool hicoo, std::size_t order, std::size_t nnz,
                 std::size_t fibers, std::size_t blocks, std::size_t rank);

}  // namespace perfbench
