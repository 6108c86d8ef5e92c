#include "sim/warp.hpp"

#include "sim/core.hpp"
#include "support/log.hpp"

namespace gga {

Warp::Warp(SmCore& sm, std::uint32_t global_warp_id, std::uint32_t block_id,
           std::uint32_t first_thread, std::uint32_t lane_count)
    : sm_(sm),
      globalWarpId_(global_warp_id),
      blockId_(block_id),
      firstThread_(first_thread),
      laneCount_(lane_count)
{
}

void
Warp::bindTask(WarpTask task)
{
    GGA_ASSERT(task, "binding empty warp task");
    handle_ = task.release();
}

void
Warp::start()
{
    resumeNow();
}

Warp::OpAwaiter
Warp::compute(std::uint32_t cycles)
{
    opKind_ = OpKind::Compute;
    opCycles_ = cycles == 0 ? 1 : cycles;
    opAddrs_ = nullptr;
    return OpAwaiter{this};
}

Warp::OpAwaiter
Warp::load(const AddrSet& lines)
{
    opKind_ = OpKind::Load;
    opAddrs_ = &lines;
    return OpAwaiter{this};
}

Warp::OpAwaiter
Warp::store(const AddrSet& lines)
{
    opKind_ = OpKind::Store;
    opAddrs_ = &lines;
    return OpAwaiter{this};
}

Warp::OpAwaiter
Warp::atomic(const AddrSet& words, bool needs_value)
{
    opKind_ = OpKind::Atomic;
    opAddrs_ = &words;
    opNeedsValue_ = needs_value;
    return OpAwaiter{this};
}

Warp::OpAwaiter
Warp::barrier()
{
    opKind_ = OpKind::Barrier;
    opAddrs_ = nullptr;
    return OpAwaiter{this};
}

void
Warp::issuePendingOp()
{
    // Memory instructions occupy the LSU for one cycle per coalesced
    // transaction group (4 lanes' worth); compute and barriers take one.
    std::uint32_t slots = 1;
    if (opKind_ == OpKind::Load || opKind_ == OpKind::Store ||
        opKind_ == OpKind::Atomic) {
        if (opAddrs_ && !opAddrs_->empty())
            slots = (opAddrs_->size() + 3) / 4;
    }
    const Cycles t = sm_.claimIssueSlot(slots);
    const Cycles now = sm_.engine().now();
    if (t == now) {
        executeOp();
    } else {
        sm_.engine().scheduleAt(t, [this] { executeOp(); });
    }
}

void
Warp::block(WaitCat cat)
{
    GGA_ASSERT(!blocked_, "warp double-blocked");
    blocked_ = true;
    blockedCat_ = cat;
    sm_.accounting().blockWarp(cat, sm_.engine().now());
}

void
Warp::unblock()
{
    GGA_ASSERT(blocked_, "warp not blocked");
    blocked_ = false;
    sm_.accounting().unblockWarp(blockedCat_, sm_.engine().now());
}

void
Warp::resumeNow()
{
    GGA_ASSERT(handle_ && !finished_, "resuming dead warp");
    handle_.resume();
    if (handle_.done()) {
        finished_ = true;
        handle_.destroy();
        handle_ = nullptr;
        sm_.onWarpFinished(*this);
    }
}

void
Warp::scheduleResume(Cycles delay)
{
    sm_.engine().schedule(delay, [this] { resumeNow(); });
}

void
Warp::executeOp()
{
    sm_.accounting().onIssue(sm_.engine().now());
    switch (opKind_) {
      case OpKind::Compute:
        block(WaitCat::Comp);
        sm_.engine().schedule(opCycles_, [this] {
            unblock();
            resumeNow();
        });
        break;
      case OpKind::Load:
        if (opAddrs_->empty()) {
            scheduleResume(1);
            break;
        }
        block(WaitCat::Data);
        sm_.l1().load(opAddrs_->data(), opAddrs_->size(), [this] {
            unblock();
            resumeNow();
        });
        break;
      case OpKind::Store:
        if (opAddrs_->empty()) {
            scheduleResume(1);
            break;
        }
        block(WaitCat::Data);
        sm_.l1().store(opAddrs_->data(), opAddrs_->size(), [this] {
            unblock();
            resumeNow();
        });
        break;
      case OpKind::Atomic:
        if (opAddrs_->empty()) {
            scheduleResume(1);
            break;
        }
        execAtomic();
        break;
      case OpKind::Barrier:
        block(WaitCat::Sync);
        sm_.barrierArrive(*this);
        break;
    }
}

void
Warp::execAtomic()
{
    const ConsistencySpec& spec = sm_.consistency();
    if (spec.paired) {
        // DRF0: release ; atomic ; acquire — fully blocking.
        block(WaitCat::Sync);
        sm_.l1().releaseFlush([this] { drf0AfterRelease(); });
        return;
    }
    if (outstandingAtomics_ >= spec.window) {
        // DRF1 (window 1): wait for the previous atomic instruction.
        // DRFrlx: wait for a slot in the relaxed window.
        block(WaitCat::Sync);
        waitingForWindow_ = true;
        return;
    }
    launchAtomic();
}

void
Warp::launchAtomic()
{
    ++outstandingAtomics_;
    sm_.l1().atomic(opAddrs_->data(), opAddrs_->size(),
                    [this] { onAtomicComplete(); });
    if (opNeedsValue_) {
        if (!blocked_)
            block(WaitCat::Sync);
        waitingForValue_ = true;
    } else {
        if (blocked_)
            unblock();
        scheduleResume(1); // fire-and-forget
    }
}

void
Warp::onAtomicComplete()
{
    GGA_ASSERT(outstandingAtomics_ > 0, "atomic completion underflow");
    --outstandingAtomics_;
    if (waitingForWindow_ && outstandingAtomics_ < sm_.consistency().window) {
        waitingForWindow_ = false;
        launchAtomic();
        return;
    }
    if (waitingForValue_ && outstandingAtomics_ == 0) {
        waitingForValue_ = false;
        unblock();
        scheduleResume(0);
    }
}

void
Warp::drf0AfterRelease()
{
    sm_.l1().atomic(opAddrs_->data(), opAddrs_->size(),
                    [this] { drf0AfterAtomic(); });
}

void
Warp::drf0AfterAtomic()
{
    sm_.l1().acquireInvalidate([this] {
        unblock();
        resumeNow();
    });
}

void
Warp::resumeFromBarrier()
{
    unblock();
    resumeNow();
}

} // namespace gga
