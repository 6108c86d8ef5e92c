/**
 * @file
 * TaskPool: the work-stealing, priority-aware executor behind
 * Session::submit and every gga_serve job.
 *
 * Two priority lanes — Interactive and Batch — where dequeue order
 * always prefers interactive work: a resident server mixing small
 * single-plan jobs with paper-sized manifest sweeps no longer
 * head-of-line-blocks the small ones. Within a lane:
 *
 *  - Single tasks (post/submit) land in a mutex-guarded global
 *    injection queue, FIFO per lane.
 *  - Batches (postAll) enqueue ONE expander task; the worker that picks
 *    it up pushes every unit into its own lock-free Chase–Lev deque
 *    (support/work_steal_deque.hpp) — the legal owner-side push — and
 *    idle siblings steal from it with randomized victim selection
 *    (SplitRng; gga_lint bans rand()). The shared lock is thus touched
 *    once per batch, not once per unit, and the per-unit hot path is
 *    lock-free.
 *
 * A worker's dequeue priority: own interactive deque, injected
 * interactive, stolen interactive, then the same three for batch.
 * Results stay byte-identical regardless of scheduling order because
 * determinism lives in the task, never the schedule — the fault site
 * "pool.yield" (GGA_FAULTS) perturbs interleavings on demand so tests
 * can prove it.
 *
 * Queue elements are move-only InlineFunction callables, so submit()
 * stores its packaged_task inline instead of wrapping it in a
 * shared_ptr for std::function's copyability rule — one heap allocation
 * per task on the submit path, not two.
 *
 * Optional CPU-affinity pinning (TaskPoolOptions::pinThreads or
 * GGA_PIN_THREADS=1): worker i pins to core i mod N via
 * pthread_setaffinity_np on Linux, a graceful no-op elsewhere — the
 * first step of the ROADMAP NUMA item.
 *
 * Destruction drains both lanes: tasks already posted run to completion
 * before the workers join, so futures handed out by submit() never
 * become broken promises.
 */

#ifndef GGA_API_TASK_POOL_HPP
#define GGA_API_TASK_POOL_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/inline_function.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"
#include "support/work_steal_deque.hpp"

namespace gga {

/** Scheduling priority of one task. Interactive always dequeues first. */
enum class Lane : unsigned char
{
    Interactive = 0,
    Batch = 1,
};

inline constexpr unsigned kLaneCount = 2;

/** "interactive" / "batch". */
const char* laneName(Lane lane);

/** Parse a lane name; nullopt on anything else. */
std::optional<Lane> parseLane(std::string_view name);

/** TaskPool construction knobs. */
struct TaskPoolOptions
{
    /** Worker count, clamped to [1, TaskPool::kMaxThreads]. */
    unsigned threads = 1;
    /**
     * Pin worker i to CPU i mod hardware_concurrency
     * (pthread_setaffinity_np). Defaulted from GGA_PIN_THREADS ("1"/"0")
     * when unset here; a platform without thread affinity warns once and
     * runs unpinned.
     */
    std::optional<bool> pinThreads = std::nullopt;
    /**
     * Nice delta applied to a worker for the duration of each BATCH-lane
     * task, so that when every CPU is busy, the kernel's own scheduler
     * keeps favoring interactive tasks that lane priority alone cannot
     * preempt. 0 disables. Applied only where it is reversible (root or
     * a sufficient RLIMIT_NICE — an unprivileged thread can lower its
     * priority but not restore it); elsewhere the pool silently runs
     * un-niced, so the knob is safe to leave on everywhere.
     */
    int batchNice = 10;
};

/** GGA_PIN_THREADS environment value; false when unset. */
bool defaultPinThreads();

class TaskPool
{
  public:
    /**
     * The queue element: move-only, 64 inline bytes — enough for a
     * packaged_task handle or a unique_ptr to a heavier context, by
     * design not enough for a careless by-value capture of a RunPlan.
     */
    using Task = InlineFunction<void(), 64>;

    /** Executor telemetry for /stats. */
    struct Stats
    {
        std::size_t interactiveDepth = 0; ///< queued, interactive lane
        std::size_t batchDepth = 0;       ///< queued, batch lane
        std::uint64_t stealsTotal = 0;    ///< successful steals
        std::uint64_t stealFailures = 0;  ///< CAS-race aborts while stealing
        bool pinned = false; ///< pinning requested and every worker pinned
        bool batchNiced = false; ///< batch tasks run at a higher nice
    };

    /**
     * Hard cap on the width: every task is a whole-workload simulation,
     * so widths beyond this never help, and an unclamped environment
     * value must not spawn until exhaustion.
     */
    static constexpr unsigned kMaxThreads = 512;

    /**
     * Start opts.threads workers, clamped to [1, kMaxThreads] (with a
     * warning above the cap). If the system runs out of thread resources
     * mid-spawn the pool continues at the width it reached; only a pool
     * that cannot spawn a single worker throws.
     */
    explicit TaskPool(TaskPoolOptions opts);

    /** Drains every posted task, then joins the workers. */
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    /** Number of running worker threads. */
    unsigned width() const { return spawned_; }

    /** Tasks posted but not yet picked up by a worker, both lanes. */
    std::size_t pending() const;

    /** Tasks posted but not yet picked up, one lane. */
    std::size_t pending(Lane lane) const;

    /** Tasks currently executing on a worker. */
    unsigned active() const;

    /** Tasks finished since construction (monotonic). */
    std::uint64_t completedTotal() const;

    /** Point-in-time executor telemetry. */
    Stats stats() const;

    /** Enqueue fire-and-forget work on @p lane. */
    void post(Task job, Lane lane = Lane::Batch);

    /**
     * Enqueue a batch on @p lane through one expander task: the worker
     * that dequeues it owner-pushes every element into its Chase–Lev
     * deque, and idle workers steal. Order of execution is unspecified
     * (tasks must be independent, as every simulation task is); the
     * batch counts toward pending() immediately.
     */
    void postAll(std::vector<Task> jobs, Lane lane);

    /**
     * Enqueue @p fn on @p lane and get a future for its result. An
     * exception thrown by @p fn is captured and rethrown from
     * future::get().
     */
    template <typename Fn>
    auto
    submit(Fn fn, Lane lane = Lane::Interactive)
        -> std::future<std::invoke_result_t<Fn&>>
    {
        using R = std::invoke_result_t<Fn&>;
        std::packaged_task<R()> task(std::move(fn));
        std::future<R> result = task.get_future();
        // The task handle (a control-block pointer) moves into the
        // queue element's inline storage — no shared_ptr wrapper.
        post(Task([job = std::move(task)]() mutable { job(); }), lane);
        return result;
    }

    /**
     * Wrap a callable into a queue element without posting it — the
     * helper Session::submitAll uses to build postAll batches that
     * carry futures.
     */
    template <typename Fn>
    static auto
    package(Fn fn, Task& out) -> std::future<std::invoke_result_t<Fn&>>
    {
        using R = std::invoke_result_t<Fn&>;
        std::packaged_task<R()> task(std::move(fn));
        std::future<R> result = task.get_future();
        out = Task([job = std::move(task)]() mutable { job(); });
        return result;
    }

  private:
    struct Worker
    {
        explicit Worker(unsigned idx)
            : index(idx), rng(0x9e3779b97f4a7c15ull, idx)
        {
        }
        unsigned index;
        /** One owner deque per lane; elements are heap Task nodes. */
        WorkStealDeque<Task*> deq[kLaneCount];
        SplitRng rng; ///< victim randomization; worker-thread only
        std::thread thread;
    };

    void workerLoop(Worker& self);
    /** One dequeue attempt across all sources; true if a task ran. */
    bool runOne(Worker& self);
    /** Take from one lane: own deque, injection, expanders, then steal. */
    bool takeFromLane(Worker& self, Lane lane, Task& out);
    bool takeInjected(Lane lane, Task& out);
    /** Claim a pending batch and owner-push it into @p self's deque. */
    bool takeExpander(Worker& self, Lane lane);
    bool stealFromSiblings(Worker& self, Lane lane, Task& out);
    void execute(Task task, Lane lane);
    /** Bump the work-visible version and wake @p everyone or one. */
    void announce(bool everyone);
    void pinSelf(unsigned index);

    mutable Mutex mu_;
    CondVar cv_;
    /** Per-lane injection queues for single (non-batch) tasks. */
    std::deque<Task> injected_[kLaneCount] GGA_GUARDED_BY(mu_);
    /**
     * Batches posted by postAll, waiting for a worker to unpack them
     * into its own deque (the Chase–Lev owner-push). Stored whole: the
     * injection lock is taken once per batch, not once per unit.
     */
    std::deque<std::vector<Task>> expanders_[kLaneCount]
        GGA_GUARDED_BY(mu_);
    bool stopping_ GGA_GUARDED_BY(mu_) = false;
    /**
     * Bumped (under mu_) every time work becomes visible anywhere —
     * injection, expansion, or a steal that left the victim non-empty.
     * Workers sleep only when the version they scanned at is still
     * current, so a push between "scan found nothing" and "wait" can
     * never be lost.
     */
    std::uint64_t version_ GGA_GUARDED_BY(mu_) = 0;
    /** Only mutated in the constructor, before and after the spawn loop
     *  runs — never while workers can observe it. unique_ptr: deque
     *  addresses must be stable for thieves. May hold more entries than
     *  spawned threads after a mid-spawn resource failure; the threadless
     *  tail just owns forever-empty deques. */
    std::vector<std::unique_ptr<Worker>> workers_;
    /** Threads actually running (<= workers_.size(); see above). */
    unsigned spawned_ = 0;
    bool pinThreads_ = false;
    /** batchNice when adjustment is available and reversible, else 0. */
    int batchNice_ = 0;
    /**
     * Tasks enqueued anywhere (injection, expander, expanded units) and
     * not yet finished. The drain condition: workers exit only once
     * stopping_ and this reaches zero, so postAll batches still inside
     * an expander can never be dropped at shutdown.
     */
    std::atomic<std::uint64_t> outstanding_{0};
    std::atomic<unsigned> active_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> stealFailures_{0};
    std::atomic<unsigned> pinnedWorkers_{0};
};

} // namespace gga

#endif // GGA_API_TASK_POOL_HPP
