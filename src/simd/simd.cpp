#include "simd/simd.hpp"

#include "obs/metrics.hpp"

namespace pasta::simd {

Isa
note_kernel()
{
    static const auto isa_counts =
        obs::metrics::label_counters<static_cast<std::size_t>(Isa::kAvx512) +
                                     1>("simd.isa", isa_name);
    static const obs::metrics::Gauge width("simd.width");
    const Isa isa = active_isa();
    isa_counts[static_cast<std::size_t>(isa)].add();
    width.max(static_cast<double>(isa_lanes(isa)));
    return isa;
}

}  // namespace pasta::simd
