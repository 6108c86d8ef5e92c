/**
 * @file
 * SIMT warp execution: each warp is a C++20 coroutine that co_awaits
 * memory/compute operations against its SM. Functional data lives in host
 * arrays; the awaited operations carry only addresses and drive timing.
 */

#ifndef GGA_SIM_WARP_HPP
#define GGA_SIM_WARP_HPP

#include <coroutine>
#include <cstdint>

#include "sim/params.hpp"
#include "sim/stall.hpp"
#include "support/inline_vec.hpp"
#include "support/types.hpp"

namespace gga {

class SmCore;

/**
 * Unique lines/words of one warp instruction after coalescing. Capacity
 * allows two fused per-lane gathers (e.g. edge id + weight).
 */
using AddrSet = InlineVec<Addr, 2 * SimParams::warpSize>;

/** Coroutine return type for warp programs. */
class WarpTask
{
  public:
    struct promise_type
    {
        WarpTask
        get_return_object()
        {
            return WarpTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    WarpTask() = default;
    explicit WarpTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
    WarpTask(WarpTask&& o) noexcept : handle_(o.handle_)
    {
        o.handle_ = nullptr;
    }
    WarpTask& operator=(WarpTask&& o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = o.handle_;
            o.handle_ = nullptr;
        }
        return *this;
    }
    WarpTask(const WarpTask&) = delete;
    WarpTask& operator=(const WarpTask&) = delete;
    ~WarpTask() { destroy(); }

    std::coroutine_handle<promise_type> handle() const { return handle_; }
    explicit operator bool() const { return handle_ != nullptr; }

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    /** Release without destroying (ownership moved elsewhere). */
    std::coroutine_handle<promise_type>
    release()
    {
        auto h = handle_;
        handle_ = nullptr;
        return h;
    }

  private:
    std::coroutine_handle<promise_type> handle_ = nullptr;
};

/** Kinds of warp-level operations. */
enum class OpKind : std::uint8_t
{
    Compute,
    Load,
    Store,
    Atomic,
    Barrier,
};

/**
 * One warp: SIMT lane bookkeeping plus the coroutine driving it. Kernels
 * receive a Warp& and issue operations through the awaitable methods.
 */
class Warp
{
  public:
    Warp(SmCore& sm, std::uint32_t global_warp_id, std::uint32_t block_id,
         std::uint32_t first_thread, std::uint32_t lane_count);

    // --- kernel-facing API ---

    /** Global id of lane 0's thread (== vertex for 1:1 mappings). */
    std::uint32_t firstThread() const { return firstThread_; }

    /** Number of live lanes (the last warp of a grid may be partial). */
    std::uint32_t laneCount() const { return laneCount_; }

    std::uint32_t globalWarpId() const { return globalWarpId_; }
    std::uint32_t blockId() const { return blockId_; }

    /** Awaitable issued by kernel code; see the op factories below. */
    struct OpAwaiter
    {
        Warp* warp;

        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<>) const
        {
            warp->issuePendingOp();
        }
        void await_resume() const noexcept {}
    };

    /** Dependent computation of @p cycles cycles. */
    OpAwaiter compute(std::uint32_t cycles);

    /** Blocking read of the unique lines in @p lines. */
    OpAwaiter load(const AddrSet& lines);

    /** Store to the unique lines in @p lines (blocks only on acceptance). */
    OpAwaiter store(const AddrSet& lines);

    /**
     * Atomic word operations. @p needs_value marks atomics whose return
     * value feeds the program (CAS loops, racy loads) — those block the
     * warp even under DRFrlx.
     */
    OpAwaiter atomic(const AddrSet& words, bool needs_value);

    /** Thread-block barrier. */
    OpAwaiter barrier();

    // --- simulator-facing API ---

    void bindTask(WarpTask task);
    void start();

    /** Resume from a barrier (scheduled by the SM). */
    void resumeFromBarrier();

  private:
    friend struct OpAwaiter;

    void issuePendingOp();
    void executeOp();
    void execAtomic();
    void launchAtomic();
    void onAtomicComplete();
    void drf0AfterRelease();
    void drf0AfterAtomic();
    void block(WaitCat cat);
    void unblock();
    void resumeNow();
    void scheduleResume(Cycles delay);

    SmCore& sm_;
    std::uint32_t globalWarpId_;
    std::uint32_t blockId_;
    std::uint32_t firstThread_;
    std::uint32_t laneCount_;

    std::coroutine_handle<WarpTask::promise_type> handle_ = nullptr;
    bool finished_ = false;

    // Pending-op descriptor (one op in flight per warp coroutine).
    OpKind opKind_ = OpKind::Compute;
    std::uint32_t opCycles_ = 0;
    const AddrSet* opAddrs_ = nullptr;
    bool opNeedsValue_ = false;

    // Blocking/consistency state.
    bool blocked_ = false;
    WaitCat blockedCat_ = WaitCat::Comp;
    std::uint32_t outstandingAtomics_ = 0;
    bool waitingForWindow_ = false;
    bool waitingForValue_ = false;
};

} // namespace gga

#endif // GGA_SIM_WARP_HPP
