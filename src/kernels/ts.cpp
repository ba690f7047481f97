#include "kernels/ts.hpp"

#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace pasta {

void
ts_values(TsOp op, const Value* x, Value* y, Size count, Value s)
{
    // Table I TS model: one flop and two value streams per non-zero.
    static const obs::metrics::Counter flops("ts.flops");
    static const obs::metrics::Counter bytes("ts.bytes");
    flops.add(count);
    bytes.add(8 * count);
    if (op == TsOp::kAdd) {
        parallel_for_ranges(0, count, [&](Size first, Size last) {
            for (Size i = first; i < last; ++i)
                y[i] = x[i] + s;
        });
    } else {
        parallel_for_ranges(0, count, [&](Size first, Size last) {
            for (Size i = first; i < last; ++i)
                y[i] = x[i] * s;
        });
    }
}

CooTensor
ts_coo(const CooTensor& x, TsOp op, Value s)
{
    CooTensor y = x;  // pre-processing: pattern copy
    ts_values(op, x.values().data(), y.values().data(), x.nnz(), s);
    return y;
}

HiCooTensor
ts_hicoo(const HiCooTensor& x, TsOp op, Value s)
{
    HiCooTensor y = x;  // pre-processing: pattern copy
    ts_values(op, x.values().data(), y.values().data(), x.nnz(), s);
    return y;
}

}  // namespace pasta
