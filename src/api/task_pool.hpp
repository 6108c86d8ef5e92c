/**
 * @file
 * TaskPool: the priority-aware executor behind Session::submit and every
 * gga_serve job.
 *
 * Two priority lanes, Interactive and Batch, each one FIFO under one
 * mutex. A worker takes the head of the interactive queue when it has
 * one, otherwise the head of the batch queue, so a resident server
 * mixing small single-plan jobs with paper-sized manifest sweeps never
 * head-of-line-blocks the small ones. postAll appends a whole batch
 * under one lock, so its units start in exactly submission order at
 * every width. A task is a whole simulation, tens of milliseconds, so
 * the one lock per dequeue never contends measurably.
 *
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
 * Destruction drains both lanes: tasks already posted run to completion
 * before the workers join, so futures handed out by submit() never
 * become broken promises.
 */

#ifndef GGA_API_TASK_POOL_HPP
#define GGA_API_TASK_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/inline_function.hpp"
#include "support/parallel.hpp"
#include "support/thread_annotations.hpp"

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

class TaskPool
{
  public:
    /**
     * The queue element: move-only, 64 inline bytes — enough for a
     * packaged_task handle or a unique_ptr to a heavier context, by
     * design not enough for a careless by-value capture of a RunPlan.
     */
    using Task = InlineFunction<void(), 64>;

    /** Executor telemetry for /stats: one consistent snapshot. */
    struct Stats
    {
        std::size_t interactiveDepth = 0; ///< queued, interactive lane
        std::size_t batchDepth = 0;       ///< queued, batch lane
        unsigned running = 0;             ///< tasks executing now
        std::uint64_t completedTotal = 0; ///< tasks finished (monotonic)
        /**
         * Always 0: no worker takes work from another. Kept because
         * perfbench reads it, directly and as /stats
         * executor.steals_total.
         */
        std::uint64_t stealsTotal = 0;
        bool batchNiced = false; ///< batch tasks run at kBatchNice
    };

    /** Width cap: the process-wide thread cap of support/parallel.hpp. */
    static constexpr unsigned kMaxThreads = gga::kMaxThreads;

    /**
     * Nice delta applied to a worker for the duration of each BATCH-lane
     * task, so that when every CPU is busy, the kernel's own scheduler
     * keeps favoring interactive tasks that lane priority alone cannot
     * preempt. Applied only where it is reversible (root or a sufficient
     * RLIMIT_NICE — an unprivileged thread can lower its priority but
     * not restore it); elsewhere the pool runs un-niced.
     */
    static constexpr int kBatchNice = 10;

    /**
     * Start @p threads workers, clamped to [1, kMaxThreads] (with a
     * warning above the cap). If the system runs out of thread resources
     * mid-spawn the pool continues at the width it reached; only a pool
     * that cannot spawn a single worker throws.
     */
    explicit TaskPool(unsigned threads);

    /** Drains every posted task, then joins the workers. */
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    /** Number of running worker threads. */
    unsigned width() const { return static_cast<unsigned>(workers_.size()); }

    /** Point-in-time executor telemetry. */
    Stats stats() const;

    /** Enqueue fire-and-forget work on @p lane. */
    void post(Task job, Lane lane = Lane::Batch);

    /**
     * Append a batch to @p lane under one lock. Its units start in
     * submission order; tasks must still be independent (as every
     * simulation task is), because completion order is unspecified.
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
    void workerLoop();
    /** Block for the next task, interactive first; false once stopping
     *  and both lanes are empty. */
    bool next(Task& out, Lane& lane);
    void execute(Task task, Lane lane);

    mutable Mutex mu_;
    CondVar cv_;
    std::deque<Task> queues_[kLaneCount] GGA_GUARDED_BY(mu_);
    unsigned running_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t completed_ GGA_GUARDED_BY(mu_) = 0;
    bool stopping_ GGA_GUARDED_BY(mu_) = false;
    /** Whether batch tasks run at kBatchNice (adjustment reversible). */
    bool batchNiced_ = false;
    /** The threads that actually started. Mutated only in the
     *  constructor; the workers never read it. */
    std::vector<std::thread> workers_;
};

} // namespace gga

#endif // GGA_API_TASK_POOL_HPP
