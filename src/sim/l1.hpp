/**
 * @file
 * Per-SM L1 controller implementing both coherence protocols of the study:
 *
 * GPU coherence: write-combining L1; releases write through all dirty
 * lines; acquires flash-invalidate everything; atomics bypass the L1 and
 * execute at the L2 home bank.
 *
 * DeNovo: stores and atomics obtain registered ownership (GetO at the L2
 * directory, possibly forwarded from a remote owner L1); owned lines are
 * neither invalidated at acquires nor flushed at releases; atomics on
 * owned lines execute locally at the L1.
 *
 * Hot-path storage: per-request Pending blocks come from a freelist pool,
 * continuations stalled on store-buffer or MSHR capacity and those
 * waiting on a fill are parked on the Engine's event nodes (waking one
 * relinks its node into the wheel), and per-word serialization state
 * lives in an open-addressing FlatMap — a memory instruction in steady
 * state touches no allocator. Release flushes complete via drain
 * notification (the last outstanding store/atomic wakes them) rather
 * than by polling every few cycles.
 */

#ifndef GGA_SIM_L1_HPP
#define GGA_SIM_L1_HPP

#include <cstdint>
#include <vector>

#include "model/design_dims.hpp"
#include "sim/cache.hpp"
#include "sim/engine.hpp"
#include "sim/l2.hpp"
#include "sim/mshr.hpp"
#include "sim/params.hpp"
#include "sim/store_buffer.hpp"
#include "support/flat_map.hpp"
#include "support/object_pool.hpp"
#include "support/types.hpp"

namespace gga {

/** Per-L1 counters. */
struct L1Stats
{
    std::uint64_t loadHits = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomicL1Hits = 0;
    std::uint64_t ownershipRequests = 0;
    std::uint64_t l2AtomicsSent = 0;
    std::uint64_t flushedLines = 0;
    std::uint64_t acquireInvalidatedLines = 0;
    std::uint64_t recalls = 0;
    std::uint64_t retries = 0; ///< MSHR/SB-full retry events
};

/**
 * One SM's private L1. All `done` callbacks are delivered asynchronously
 * through the engine — never synchronously from within the request call.
 */
class L1Controller
{
  public:
    /**
     * An L1 of @p size_kib KiB (SimParams::l1SizeKiB, the one settable
     * value it reads) for SM @p sm_id under @p coh.
     */
    L1Controller(Engine& engine, std::uint32_t size_kib, CoherenceKind coh,
                 std::uint32_t sm_id, L2System& l2);

    /** Read @p count unique lines; done when all are present. */
    void load(const Addr* lines, std::uint32_t count, EventFn done);

    /**
     * Write @p count unique lines; done at *acceptance* (SB space secured
     * and, for DeNovo, ownership requested) — completion is off the
     * warp's critical path.
     */
    void store(const Addr* lines, std::uint32_t count, EventFn done);

    /** Perform @p count unique atomic word ops; done when all complete. */
    void atomic(const Addr* words, std::uint32_t count, EventFn done);

    /** Acquire: flash self-invalidation (DeNovo keeps owned lines). */
    void acquireInvalidate(EventFn done);

    /**
     * Release: GPU flushes all dirty lines to L2 and waits for acks;
     * both protocols additionally drain the store buffer and pending
     * ownership fills. Completion is event-driven — the flush is
     * notified the moment the last outstanding store/atomic retires
     * (not by polling on a cycle grid).
     */
    void releaseFlush(EventFn done);

    /** Lose ownership of @p line (directory recall / transfer). */
    void onRecall(Addr line);

    /** Per-kernel reset of ephemeral serialization state. */
    void beginKernel();

    const L1Stats& stats() const { return stats_; }

    /** In-flight ownership/data fills initiated by stores (diagnostics). */
    std::uint32_t pendingStoreFills() const { return pendingStoreFills_; }
    const StoreBuffer& storeBuffer() const { return sb_; }

  private:
    /**
     * Multi-line request bookkeeping. Every load/store/atomic carries one
     * Pending block for its lifetime; blocks come from a freelist pool
     * (pendingPool_) rather than new/delete, so the per-memory-op hot
     * path performs no heap traffic.
     */
    struct Pending
    {
        std::uint32_t remaining = 0;
        EventFn done;
    };

    void finishOne(Pending* req);
    /** Run req->done and recycle the block into the pool. */
    void retire(Pending* req);
    void fillLine(Addr line, LineState st);
    void startLoadFill(Addr line, Pending* req);
    void retryLoadLine(Addr line, Pending* req);
    void stepStore(const Addr* lines, std::uint32_t count, std::uint32_t idx,
                   Pending* req);
    void stepGpuAtomic(Addr word, Pending* req);
    void stepDeNovoAtomic(Addr word, Pending* req);
    void insertLine(Addr line, LineState st);
    /**
     * Fill @p line, absent per probe @p p, evicting within @p p's set: a
     * dirty victim writes through, an owned one releases ownership.
     */
    void allocateLine(const SetAssocCache::Probe& p, Addr line,
                      LineState st);
    bool drained() const;
    /** Complete release flushes once the drain condition holds. */
    void maybeNotifyDrain();
    void releaseSb();
    void pumpSbWaiters();
    void pumpMshrWaiters();

    Engine& engine_;
    CoherenceKind coh_;
    std::uint32_t smId_;
    L2System& l2_;
    SetAssocCache tags_;
    MshrTable mshr_;
    StoreBuffer sb_;
    /** Freelist pool backing the per-request Pending blocks. */
    ObjectPool<Pending> pendingPool_;
    /** DeNovo: per-word serialization of local L1 atomics. */
    FlatMap<Addr, Cycles> l1WordFree_;
    /** DeNovo: the L1 atomic unit retires one word per service interval. */
    Cycles atomicUnitFree_ = 0;
    std::uint32_t pendingStoreFills_ = 0;
    /** Continuations stalled on store-buffer / MSHR capacity. */
    Engine::WaitList sbWaiters_;
    Engine::WaitList mshrWaiters_;
    /** Release flushes waiting for the store buffer/fills to drain. */
    std::vector<Pending*> drainWaiters_;
    /** Scratch for dirty-line collection at releases (reused). */
    std::vector<Addr> flushScratch_;
    L1Stats stats_;
};

} // namespace gga

#endif // GGA_SIM_L1_HPP
