/**
 * @file
 * Streaming multiprocessor model: resident thread blocks, warp issue
 * bandwidth (one instruction per cycle), barrier coordination, and the
 * per-SM stall accounting.
 */

#ifndef GGA_SIM_CORE_HPP
#define GGA_SIM_CORE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/consistency.hpp"
#include "sim/engine.hpp"
#include "sim/l1.hpp"
#include "sim/stall.hpp"
#include "sim/warp.hpp"
#include "support/flat_map.hpp"

namespace gga {

/** Builds the warp coroutine for one warp of a kernel. */
using WarpFactory = std::function<WarpTask(Warp&)>;

/** One GPU core (SM/CU). */
class SmCore
{
  public:
    SmCore(Engine& engine, L1Controller& l1, const ConsistencySpec& spec);

    /** Called with the block id whenever a resident block completes. */
    void
    setBlockCompleteHandler(std::function<void(std::uint32_t)> fn)
    {
        onBlockComplete_ = std::move(fn);
    }

    /**
     * Dispatch one thread block: creates its warps and starts them after a
     * small dispatch delay.
     */
    void startBlock(std::uint32_t block_id, std::uint32_t first_thread,
                    std::uint32_t thread_count, const WarpFactory& make);

    std::uint32_t residentBlocks() const
    {
        return static_cast<std::uint32_t>(blocks_.size());
    }

    /**
     * Claim @p slots consecutive issue cycles at or after now (memory
     * instructions occupy the LSU once per generated transaction group).
     * Returns the first cycle.
     */
    Cycles claimIssueSlot(std::uint32_t slots = 1);

    /** Discard warp objects of the finished kernel. */
    void clearKernelState();

    SmAccounting& accounting() { return accounting_; }
    Engine& engine() { return engine_; }
    L1Controller& l1() { return l1_; }
    const ConsistencySpec& consistency() const { return spec_; }

    // --- warp callbacks ---
    void onWarpFinished(Warp& w);
    void barrierArrive(Warp& w);

  private:
    struct BlockRec
    {
        std::uint32_t warpsLeft = 0;
        std::uint32_t barrierArrived = 0;
        std::vector<Warp*> atBarrier;
    };

    Engine& engine_;
    L1Controller& l1_;
    ConsistencySpec spec_;
    SmAccounting accounting_;
    Cycles issueFree_ = 0;
    FlatMap<std::uint32_t, BlockRec> blocks_;
    std::vector<std::unique_ptr<Warp>> warps_;
    std::function<void(std::uint32_t)> onBlockComplete_;

    static constexpr Cycles kDispatchDelay = 8;
};

} // namespace gga

#endif // GGA_SIM_CORE_HPP
