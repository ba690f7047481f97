#include "core/sort_radix.hpp"

#include <bit>
#include <numeric>

#include "common/error.hpp"
#include "common/membudget.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace pasta::radix {

unsigned
bits_for(Index dim)
{
    if (dim <= 1)
        return 0;
    return static_cast<unsigned>(std::bit_width(
        static_cast<std::uint32_t>(dim - 1)));
}

bool
lex_key_fits(const std::vector<Index>& dims,
             const std::vector<Size>& mode_order)
{
    unsigned total = 0;
    for (Size m : mode_order)
        total += bits_for(dims[m]);
    return total <= 64;
}

std::vector<unsigned>
lex_shifts(const std::vector<Index>& dims,
           const std::vector<Size>& mode_order)
{
    // mode_order[0] owns the most significant field.
    std::vector<unsigned> shifts(mode_order.size(), 0);
    unsigned low = 0;
    for (Size k = mode_order.size(); k-- > 0;) {
        shifts[k] = low;
        low += bits_for(dims[mode_order[k]]);
    }
    return shifts;
}

void
build_lex_keys(const std::vector<std::vector<Index>>& indices,
               const std::vector<Index>& dims,
               const std::vector<Size>& mode_order,
               std::vector<std::uint64_t>& keys)
{
    PASTA_ASSERT(lex_key_fits(dims, mode_order));
    const std::vector<unsigned> shifts = lex_shifts(dims, mode_order);
    const Size n = indices.empty() ? 0 : indices[0].size();
    keys.assign(n, 0);
    // Skip zero-width fields entirely (dim-1 modes contribute no bits).
    std::vector<std::pair<const Index*, unsigned>> fields;
    for (Size k = 0; k < mode_order.size(); ++k)
        if (bits_for(dims[mode_order[k]]) > 0)
            fields.emplace_back(indices[mode_order[k]].data(), shifts[k]);
    parallel_for_ranges(0, n, [&](Size first, Size last) {
        for (Size p = first; p < last; ++p) {
            std::uint64_t key = 0;
            for (const auto& [idx, shift] : fields)
                key |= static_cast<std::uint64_t>(idx[p]) << shift;
            keys[p] = key;
        }
    });
}

bool
morton_key_fits(const std::vector<Index>& dims, unsigned block_bits)
{
    // High field: block coordinates interleaved at the widest mode's
    // bit count.  Low field: block_bits element-offset bits per mode.
    unsigned max_block_bits = 0;
    for (Index d : dims) {
        const Index blocks =
            static_cast<Index>(((d - 1) >> block_bits) + 1);
        max_block_bits = std::max(max_block_bits, bits_for(blocks));
    }
    const auto order = static_cast<unsigned>(dims.size());
    return order * max_block_bits + order * block_bits <= 64;
}

void
build_morton_keys(const std::vector<std::vector<Index>>& indices,
                  const std::vector<Index>& dims, unsigned block_bits,
                  std::vector<std::uint64_t>& keys)
{
    PASTA_ASSERT(morton_key_fits(dims, block_bits));
    const Size order = dims.size();
    unsigned max_block_bits = 0;
    for (Index d : dims) {
        const Index blocks =
            static_cast<Index>(((d - 1) >> block_bits) + 1);
        max_block_bits = std::max(max_block_bits, bits_for(blocks));
    }
    // Truncating the 128-bit interleave of morton.hpp to order *
    // max_block_bits bits preserves its ordering: every dropped higher
    // bit is zero for every in-range block coordinate.
    const unsigned low_bits = static_cast<unsigned>(order) * block_bits;
    const Index mask = (Index{1} << block_bits) - 1;
    const Size n = indices.empty() ? 0 : indices[0].size();
    keys.assign(n, 0);
    parallel_for_ranges(0, n, [&](Size first, Size last) {
        for (Size p = first; p < last; ++p) {
            std::uint64_t hi = 0;
            std::uint64_t lo = 0;
            for (Size m = 0; m < order; ++m) {
                const Index coord = indices[m][p];
                const std::uint64_t block = coord >> block_bits;
                for (unsigned bit = 0; bit < max_block_bits; ++bit)
                    hi |= ((block >> bit) & 1ULL)
                          << (bit * order + m);
                // Lexicographic in-block suffix, mode 0 most significant.
                lo |= static_cast<std::uint64_t>(coord & mask)
                      << ((order - 1 - m) * block_bits);
            }
            keys[p] = (hi << low_bits) | lo;
        }
    });
}

namespace {

constexpr unsigned kDigitBits = 8;
constexpr Size kBuckets = Size{1} << kDigitBits;

}  // namespace

void
sort_perm(std::vector<std::uint64_t>& keys, std::vector<Size>& perm)
{
    const Size n = keys.size();
    // Sort scratch: the permutation plus the double-buffered key and
    // permutation arrays the LSD passes ping-pong through.
    membudget::check(std::uint64_t{24} * n, "sort.scratch");
    perm.resize(n);
    parallel_for_ranges(0, n, [&](Size first, Size last) {
        for (Size p = first; p < last; ++p)
            perm[p] = p;
    });
    if (n < 2)
        return;

    std::uint64_t max_key = 0;
#pragma omp parallel for num_threads(num_threads()) schedule(static) \
    reduction(max : max_key)
    for (long long p = 0; p < static_cast<long long>(n); ++p)
        max_key = std::max(max_key, keys[p]);
    const unsigned passes =
        std::max(1u, (static_cast<unsigned>(std::bit_width(max_key)) +
                      kDigitBits - 1) /
                         kDigitBits);
    static const obs::metrics::Counter pass_count("sort.radix_passes");
    static const obs::metrics::Counter key_count("sort.radix_keys");
    pass_count.add(passes);
    key_count.add(n);

    // Fixed chunk partition shared by the histogram and scatter phases.
    // Stability makes the result independent of the partition (and hence
    // of the thread count): a stable sort's permutation is unique.
    const Size chunks = std::min<Size>(
        static_cast<Size>(std::max(1, num_threads())), n);
    const Size per = (n + chunks - 1) / chunks;

    std::vector<std::uint64_t> keys_out(n);
    std::vector<Size> perm_out(n);
    std::vector<Size> hist(chunks * kBuckets);

    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = pass * kDigitBits;
        std::fill(hist.begin(), hist.end(), 0);
        // Phase 1: per-chunk digit histograms.
        parallel_for(0, chunks, Schedule::kStatic, [&](Size c) {
            const Size first = c * per;
            const Size last = std::min(n, first + per);
            Size* h = hist.data() + c * kBuckets;
            for (Size p = first; p < last; ++p)
                ++h[(keys[p] >> shift) & (kBuckets - 1)];
        });
        // Phase 2: exclusive scan in (digit, chunk) order, so chunk c's
        // elements with digit d land after every earlier chunk's.
        Size running = 0;
        for (Size d = 0; d < kBuckets; ++d) {
            for (Size c = 0; c < chunks; ++c) {
                Size& slot = hist[c * kBuckets + d];
                const Size count = slot;
                slot = running;
                running += count;
            }
        }
        // Phase 3: stable parallel scatter.
        parallel_for(0, chunks, Schedule::kStatic, [&](Size c) {
            const Size first = c * per;
            const Size last = std::min(n, first + per);
            Size* h = hist.data() + c * kBuckets;
            for (Size p = first; p < last; ++p) {
                const Size pos = h[(keys[p] >> shift) & (kBuckets - 1)]++;
                keys_out[pos] = keys[p];
                perm_out[pos] = perm[p];
            }
        });
        keys.swap(keys_out);
        perm.swap(perm_out);
    }
}

}  // namespace pasta::radix
