/**
 * @file
 * GSI-style stall classification (Alsop et al., ISPASS 2016; paper
 * Sec. V-C): every SM cycle is Busy, Comp, Data, Sync, or Idle.
 */

#ifndef GGA_SIM_STALL_HPP
#define GGA_SIM_STALL_HPP

#include <cstdint>
#include <string>

#include "support/types.hpp"

namespace gga {

/** What a blocked warp is waiting on. */
enum class WaitCat : std::uint8_t
{
    Comp = 0, ///< occupied computation unit / result of a computation
    Data = 1, ///< non-atomic memory (loads, store acceptance, MSHR/SB full)
    Sync = 2, ///< atomic results, barriers, flush/invalidate at syncs
};

/** Cycle breakdown of one SM or aggregated over SMs. */
struct StallBreakdown
{
    double busy = 0.0;
    double comp = 0.0;
    double data = 0.0;
    double sync = 0.0;
    double idle = 0.0;

    double
    total() const
    {
        return busy + comp + data + sync + idle;
    }

    /** Field-wise equality (determinism / shard-invariance tests). */
    bool operator==(const StallBreakdown&) const = default;

    StallBreakdown&
    operator+=(const StallBreakdown& o)
    {
        busy += o.busy;
        comp += o.comp;
        data += o.data;
        sync += o.sync;
        idle += o.idle;
        return *this;
    }
};

/** One-line "busy=12% comp=3% ..." summary. */
std::string describeBreakdown(const StallBreakdown& b);

/**
 * Per-SM cycle accounting. Driven by state-change notifications:
 * a cycle with an instruction issue is Busy; a cycle with no resident
 * unfinished warp is Idle; any other cycle is split across Comp/Data/Sync
 * proportionally to the blocked warps' wait categories.
 */
class SmAccounting
{
  public:
    /** An instruction issued at cycle @p t. */
    void onIssue(Cycles t);

    /** A warp blocked at @p t waiting on @p cat. */
    void blockWarp(WaitCat cat, Cycles t);

    /** A warp waiting on @p cat unblocked at @p t. */
    void unblockWarp(WaitCat cat, Cycles t);

    /** A warp became resident (dispatch) at @p t. */
    void warpArrived(Cycles t);

    /** A resident warp fully finished at @p t. */
    void warpFinished(Cycles t);

    /** Account the interval up to @p t with the current state. */
    void catchUp(Cycles t);

    /** Directly account [from, to) to one category (kernel-edge costs). */
    void accountExplicit(WaitCat cat, Cycles from, Cycles to);

    const StallBreakdown& breakdown() const { return bd_; }

  private:
    void account(Cycles up_to);

    StallBreakdown bd_;
    Cycles lastEnd_ = 0;
    std::uint32_t blocked_[3] = {0, 0, 0};
    std::uint32_t unfinished_ = 0;
};

} // namespace gga

#endif // GGA_SIM_STALL_HPP
