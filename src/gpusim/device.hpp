/// \file
/// SIMT execution model for the GPU kernel implementations.
///
/// This environment has no physical GPU, so the suite executes the paper's
/// GPU algorithms on a simulated device: a CUDA-like launch of a 1-D grid
/// of 1-D/2-D thread blocks, where each simulated thread runs the kernel
/// functor with its (blockIdx, threadIdx) coordinates.  Thread blocks are
/// distributed over host worker threads; atomicAdd has real atomic
/// semantics, so the GPU algorithms' correctness properties (data races
/// avoided via atomics, output independence across blocks) are exercised
/// for real.  Performance of a launch is *modeled*, not measured — see
/// timing_model.hpp.
/// Device memory is modeled too: every kernel stages its operands through
/// DeviceBuffer, which draws byte-accurate allocations from DeviceMemory
/// (capacity set by PASTA_GPUSIM_MEM_BYTES, default 16 GiB).  A transfer
/// that exceeds the configured capacity raises DeviceOomError instead of
/// silently "fitting" a tensor the real card could not hold.  Under
/// PASTA_VALIDATE=full, kernels additionally wrap their global-memory
/// pointers in bounds-checked Span handles; out-of-range simulated
/// accesses are recorded by AccessMonitor and reported after the launch
/// (never thrown mid-kernel — the launch runs on OpenMP worker threads
/// where an escaping exception would terminate the process).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/types.hpp"

namespace pasta::gpusim {

/// CUDA-style 3-component extent (z unused by this suite's kernels).
struct Dim3 {
    Size x = 1;
    Size y = 1;
    Size z = 1;

    Size volume() const { return x * y * z; }
};

/// Per-thread coordinates handed to the kernel functor.
struct ThreadCtx {
    Dim3 block_idx;
    Dim3 thread_idx;
    Dim3 grid_dim;
    Dim3 block_dim;

    /// Flattened global x index (CUDA: blockIdx.x * blockDim.x +
    /// threadIdx.x).
    Size global_x() const
    {
        return block_idx.x * block_dim.x + thread_idx.x;
    }

    /// Flattened global y index.
    Size global_y() const
    {
        return block_idx.y * block_dim.y + thread_idx.y;
    }
};

/// Simulated atomicAdd on a float, safe across concurrently executing
/// simulated thread blocks.
void atomic_add(Value* address, Value value);

/// Number of thread blocks needed to cover `work` items with `block`
/// threads each (CUDA's ceil-div grid sizing).
inline Size
grid_blocks(Size work, Size block)
{
    return work == 0 ? 0 : (work + block - 1) / block;
}

/// Default 1-D thread block size used by the paper's COO GPU kernels
/// (Algorithm 2 assigns M non-zeros to M/256 blocks of 256 threads).
inline constexpr Size kDefaultBlockThreads = 256;

namespace detail {

/// Metrics hook for launch() (gpusim.launches/sim_blocks/sim_threads);
/// defined out of line so the hot launch template carries no obs include.
void note_launch(Size blocks, Size threads_per_block);

}  // namespace detail

/// Executes `kernel` once per simulated thread of a `grid` x `block`
/// launch.  Thread blocks may run concurrently on host threads; threads
/// within one block run sequentially (no intra-block synchronization is
/// used by this suite's kernels).  Template: the kernel functor inlines
/// into the simulated thread loop, so a launch costs no type-erased
/// dispatch per simulated thread.
template <typename Kernel>
void
launch(Dim3 grid, Dim3 block, Kernel kernel)
{
    const Size num_blocks = grid.volume();
    if (num_blocks == 0)
        return;
    detail::note_launch(num_blocks, block.volume());
    parallel_for(0, num_blocks, Schedule::kDynamic, [&](Size linear_block) {
        ThreadCtx ctx;
        ctx.grid_dim = grid;
        ctx.block_dim = block;
        ctx.block_idx.x = linear_block % grid.x;
        ctx.block_idx.y = (linear_block / grid.x) % grid.y;
        ctx.block_idx.z = linear_block / (grid.x * grid.y);
        for (Size tz = 0; tz < block.z; ++tz) {
            for (Size ty = 0; ty < block.y; ++ty) {
                for (Size tx = 0; tx < block.x; ++tx) {
                    ctx.thread_idx = {tx, ty, tz};
                    kernel(ctx);
                }
            }
        }
    });
}

/// Thrown when a simulated device allocation exceeds the configured
/// capacity.  Derives from PastaError so the trial guard catches and
/// journals it like any other trial error (transient class: a retry on a
/// smaller tensor or raised capacity can succeed).
class DeviceOomError : public PastaError {
  public:
    explicit DeviceOomError(const std::string& what) : PastaError(what) {}
};

/// Byte-accurate allocation accounting for the simulated device.
///
/// Capacity comes from PASTA_GPUSIM_MEM_BYTES (a byte count with an
/// optional K/M/G suffix; default 16 GiB, matching the Tesla P100/V100
/// class the timing model simulates; 0 = unlimited; malformed values
/// throw PastaError).  allocate() draws down the
/// capacity and throws DeviceOomError naming the allocation when it does
/// not fit; release() returns bytes.  The accounting is process-wide,
/// like the device it models.
class DeviceMemory {
  public:
    /// The singleton accountant.
    static DeviceMemory& instance();

    /// Capacity in bytes; 0 means unlimited.
    std::uint64_t capacity() const { return capacity_; }

    /// Parses PASTA_GPUSIM_MEM_BYTES (the constructor's capacity).
    static std::uint64_t capacity_from_env();

    /// Overrides the capacity (tests); resets nothing else.
    void set_capacity(std::uint64_t bytes) { capacity_ = bytes; }

    /// Currently allocated bytes and the high-water mark.
    std::uint64_t used() const { return used_.load(); }
    std::uint64_t peak() const { return peak_.load(); }

    /// Claims `bytes` for `what`; throws DeviceOomError when capacity
    /// would be exceeded.
    void allocate(std::uint64_t bytes, const char* what);

    /// Returns `bytes` to the pool.
    void release(std::uint64_t bytes);

  private:
    DeviceMemory();

    std::uint64_t capacity_ = 0;
    std::atomic<std::uint64_t> used_{0};
    std::atomic<std::uint64_t> peak_{0};
};

/// RAII claim on simulated device memory for one staged operand.
class DeviceBuffer {
  public:
    DeviceBuffer() = default;

    /// Claims `bytes` from DeviceMemory; throws DeviceOomError on
    /// exhaustion.
    DeviceBuffer(std::uint64_t bytes, const char* what);

    DeviceBuffer(const DeviceBuffer&) = delete;
    DeviceBuffer& operator=(const DeviceBuffer&) = delete;
    DeviceBuffer(DeviceBuffer&& other) noexcept;
    DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;
    ~DeviceBuffer();

    std::uint64_t bytes() const { return bytes_; }

  private:
    std::uint64_t bytes_ = 0;
};

/// Records out-of-range simulated global-memory accesses.
///
/// Armed per launch under PASTA_VALIDATE=full.  Kernels must not throw on
/// worker threads (std::terminate under OpenMP), so Span::operator[]
/// records the violation and returns a sink; the host checks afterwards
/// with throw_if_access_violations().
class AccessMonitor {
  public:
    /// Arms (resetting counters) or disarms checking.
    static void arm(bool enable);

    static bool armed() { return armed_.load(std::memory_order_relaxed); }

    /// Records one out-of-bounds access (first one keeps its details).
    static void record(Size index, Size limit);

    /// Violations since the last arm().
    static Size violations()
    {
        return violations_.load(std::memory_order_relaxed);
    }

    /// Throws ValidationError naming `kernel` when violations were
    /// recorded, then disarms.  No-op (but still disarms) when clean.
    static void throw_if_access_violations(const char* kernel);

  private:
    static std::atomic<bool> armed_;
    static std::atomic<Size> violations_;
    static std::atomic<Size> first_index_;
    static std::atomic<Size> first_limit_;
};

/// Bounds-checked view of a simulated global-memory array.  When the
/// AccessMonitor is disarmed (PASTA_VALIDATE != full) the accessors are a
/// raw pointer index — no branch on the value path beyond one predictable
/// armed() load — so the disabled mode stays overhead-free.
template <typename T>
struct Span {
    T* data = nullptr;
    Size n = 0;

    T& operator[](Size i) const
    {
        if (AccessMonitor::armed() && i >= n) {
            AccessMonitor::record(i, n);
            return sink();
        }
        return data[i];
    }

    /// Per-thread spill target for recorded violations: keeps the kernel
    /// running without touching real storage.
    static T& sink()
    {
        thread_local T value{};
        return value;
    }
};

template <typename T>
Span<T>
make_span(T* data, Size n)
{
    return Span<T>{data, n};
}

}  // namespace pasta::gpusim
