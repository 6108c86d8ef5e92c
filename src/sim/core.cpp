#include "sim/core.hpp"

#include "support/log.hpp"

namespace gga {

SmCore::SmCore(Engine& engine, L1Controller& l1, const ConsistencySpec& spec)
    : engine_(engine), l1_(l1), spec_(spec)
{
}

void
SmCore::startBlock(std::uint32_t block_id, std::uint32_t first_thread,
                   std::uint32_t thread_count, const WarpFactory& make)
{
    GGA_ASSERT(thread_count > 0, "empty thread block");
    GGA_ASSERT(!blocks_.contains(block_id), "block already resident");
    BlockRec& rec = blocks_[block_id];

    constexpr std::uint32_t warp_size = SimParams::warpSize;
    const std::uint32_t num_warps =
        (thread_count + warp_size - 1) / warp_size;
    rec.warpsLeft = num_warps;

    for (std::uint32_t w = 0; w < num_warps; ++w) {
        const std::uint32_t first = first_thread + w * warp_size;
        const std::uint32_t lanes =
            std::min(warp_size, first_thread + thread_count - first);
        auto warp = std::make_unique<Warp>(
            *this, (first_thread / warp_size) + w, block_id, first, lanes);
        Warp* wp = warp.get();
        wp->bindTask(make(*wp));
        warps_.push_back(std::move(warp));
        accounting_.warpArrived(engine_.now());
        engine_.schedule(kDispatchDelay, [wp] { wp->start(); });
    }
}

Cycles
SmCore::claimIssueSlot(std::uint32_t slots)
{
    const Cycles t = std::max(engine_.now(), issueFree_);
    issueFree_ = t + std::max<std::uint32_t>(1, slots);
    return t;
}

void
SmCore::onWarpFinished(Warp& w)
{
    accounting_.warpFinished(engine_.now());
    BlockRec* rec = blocks_.find(w.blockId());
    GGA_ASSERT(rec != nullptr, "warp finished for unknown block");
    GGA_ASSERT(rec->warpsLeft > 0, "block warp underflow");
    if (--rec->warpsLeft == 0) {
        const std::uint32_t block_id = w.blockId();
        blocks_.erase(block_id);
        if (onBlockComplete_)
            onBlockComplete_(block_id);
    }
}

void
SmCore::barrierArrive(Warp& w)
{
    BlockRec* found = blocks_.find(w.blockId());
    GGA_ASSERT(found != nullptr, "barrier for unknown block");
    BlockRec& rec = *found;
    rec.atBarrier.push_back(&w);
    rec.barrierArrived++;
    if (rec.barrierArrived == rec.warpsLeft) {
        // All live warps arrived: release everyone.
        std::vector<Warp*> release = std::move(rec.atBarrier);
        rec.atBarrier.clear();
        rec.barrierArrived = 0;
        for (Warp* wp : release) {
            engine_.schedule(1, [wp] { wp->resumeFromBarrier(); });
        }
    }
}

void
SmCore::clearKernelState()
{
    GGA_ASSERT(blocks_.empty(), "clearing SM with resident blocks");
    warps_.clear();
}

} // namespace gga
