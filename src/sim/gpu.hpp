/**
 * @file
 * Top-level simulated GPU: owns the engine, memory system, SMs, and the
 * thread-block dispatcher. Kernels launch synchronously from the host's
 * perspective (the CPU driver loop in each application).
 */

#ifndef GGA_SIM_GPU_HPP
#define GGA_SIM_GPU_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/design_dims.hpp"
#include "sim/address_space.hpp"
#include "sim/core.hpp"
#include "sim/dram.hpp"
#include "sim/engine.hpp"
#include "sim/l1.hpp"
#include "sim/l2.hpp"
#include "sim/mem_stats.hpp"
#include "sim/params.hpp"
#include "sim/stall.hpp"

namespace gga {

/**
 * The simulated integrated GPU. Construct one per run with the coherence
 * and consistency configuration under study, allocate DeviceBuffers from
 * mem(), then launch() kernels.
 */
class Gpu
{
  public:
    /**
     * The one reader of @p params: the L1 size sizes the L1s and the
     * DRFrlx window goes into the consistency rules.
     */
    Gpu(const SimParams& params, CoherenceKind coh, ConsistencyKind con);
    ~Gpu();

    Gpu(const Gpu&) = delete;
    Gpu& operator=(const Gpu&) = delete;

    /** Address allocator for DeviceBuffers. */
    AddressSpace& mem() { return space_; }

    /**
     * Launch a kernel of @p num_threads threads (vertex-per-thread grids)
     * and run it to completion, including the kernel-boundary acquire
     * (L1 self-invalidation) and release (dirty flush / drain).
     */
    void launch(const std::string& name, std::uint32_t num_threads,
                const WarpFactory& make_warp);

    /** Current simulated time (monotone across launches). */
    Cycles now() const { return engine_.now(); }

    /** Per-category cycle totals summed over SMs, all kernels so far. */
    StallBreakdown totalBreakdown() const;

    /** Aggregated memory-system counters. */
    MemStats memStats() const;

    std::uint32_t kernelsLaunched() const { return kernelsLaunched_; }

    // --- component access for white-box tests ---
    Engine& engine() { return engine_; }
    L1Controller& l1(std::uint32_t sm) { return *l1s_[sm]; }

  private:
    void dispatchBlocks();
    void onBlockComplete(std::uint32_t sm_id);
    /** Start pending blocks on @p sm until it is full or none remain. */
    void fillSm(SmCore& sm);

    Engine engine_;
    Dram dram_;
    AddressSpace space_;
    std::unique_ptr<L2System> l2_;
    std::vector<std::unique_ptr<L1Controller>> l1s_;
    std::vector<std::unique_ptr<SmCore>> sms_;

    // Per-launch dispatcher state.
    const WarpFactory* currentFactory_ = nullptr;
    std::uint32_t gridThreads_ = 0;
    std::uint32_t nextBlock_ = 0;
    std::uint32_t numBlocks_ = 0;
    std::uint32_t blocksDone_ = 0;
    std::uint32_t kernelsLaunched_ = 0;
};

} // namespace gga

#endif // GGA_SIM_GPU_HPP
