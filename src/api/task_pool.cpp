#include "api/task_pool.hpp"

#include <algorithm>
#include <string_view>
#include <system_error>

#include "support/faults.hpp"
#include "support/log.hpp"

#if defined(__linux__)
#include <cerrno>
#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace gga {

namespace {

unsigned
laneIndex(Lane lane)
{
    return static_cast<unsigned>(lane);
}

#if defined(__linux__)
/**
 * Whether a worker thread can lower its nice for a batch task AND raise
 * it back afterwards. Lowering is always allowed; raising needs
 * CAP_SYS_NICE (root) or an RLIMIT_NICE whose ceiling (nice 20 -
 * rlim_cur) reaches the thread's base nice. Checked once, side-effect
 * free — probing by actually lowering would strand an unprivileged
 * thread at the lower priority.
 */
bool
canAdjustNice()
{
    if (geteuid() == 0)
        return true;
    struct rlimit rl
    {
    };
    if (getrlimit(RLIMIT_NICE, &rl) != 0)
        return false;
    errno = 0;
    const int base = getpriority(PRIO_PROCESS, 0);
    if (base == -1 && errno != 0)
        return false;
    return base >= 20 - static_cast<int>(rl.rlim_cur);
}
#endif

} // namespace

const char*
laneName(Lane lane)
{
    return lane == Lane::Interactive ? "interactive" : "batch";
}

std::optional<Lane>
parseLane(std::string_view name)
{
    if (name == "interactive")
        return Lane::Interactive;
    if (name == "batch")
        return Lane::Batch;
    return std::nullopt;
}

TaskPool::TaskPool(unsigned threads)
{
    const unsigned requested = std::clamp(threads, 1u, kMaxThreads);
    if (threads > kMaxThreads)
        GGA_WARN("TaskPool width ", threads, " clamped to ", kMaxThreads);
#if defined(__linux__)
    batchNiced_ = canAdjustNice();
#endif

    workers_.reserve(requested);
    for (unsigned t = 0; t < requested; ++t) {
        try {
            workers_.emplace_back([this] { workerLoop(); });
        } catch (const std::system_error& e) {
            // Out of thread resources: run with what we got. With zero
            // workers there is no pool to salvage.
            if (workers_.empty())
                throw;
            GGA_WARN("TaskPool spawned ", workers_.size(), " of ",
                     requested, " workers (", e.what(),
                     "); continuing at reduced width");
            break;
        }
    }
}

TaskPool::~TaskPool()
{
    {
        MutexLock lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_)
        w.join();
}

TaskPool::Stats
TaskPool::stats() const
{
    Stats s;
    MutexLock lock(mu_);
    s.interactiveDepth = queues_[laneIndex(Lane::Interactive)].size();
    s.batchDepth = queues_[laneIndex(Lane::Batch)].size();
    s.running = running_;
    s.completedTotal = completed_;
    s.batchNiced = batchNiced_;
    return s;
}

void
TaskPool::post(Task job, Lane lane)
{
    GGA_ASSERT(job, "TaskPool::post requires a callable job");
    {
        MutexLock lock(mu_);
        GGA_ASSERT(!stopping_, "TaskPool::post after shutdown began");
        queues_[laneIndex(lane)].push_back(std::move(job));
    }
    cv_.notify_one();
}

void
TaskPool::postAll(std::vector<Task> jobs, Lane lane)
{
    if (jobs.empty())
        return;
    for (const Task& job : jobs)
        GGA_ASSERT(job, "TaskPool::postAll requires callable jobs");
    {
        MutexLock lock(mu_);
        GGA_ASSERT(!stopping_, "TaskPool::postAll after shutdown began");
        std::deque<Task>& queue = queues_[laneIndex(lane)];
        for (Task& job : jobs)
            queue.push_back(std::move(job));
    }
    cv_.notify_all();
}

void
TaskPool::workerLoop()
{
    Task task;
    Lane lane = Lane::Interactive;
    while (next(task, lane)) {
        // Deterministic schedule perturbation: the determinism tests arm
        // this site to prove results cannot depend on interleaving.
        if (faults::fire("pool.yield"))
            std::this_thread::yield();
        execute(std::move(task), lane);
    }
}

bool
TaskPool::next(Task& out, Lane& lane)
{
    MutexLock lock(mu_);
    for (;;) {
        for (const Lane l : {Lane::Interactive, Lane::Batch}) {
            std::deque<Task>& queue = queues_[laneIndex(l)];
            if (queue.empty())
                continue;
            out = std::move(queue.front());
            queue.pop_front();
            lane = l;
            ++running_;
            return true;
        }
        // Both lanes are empty, so a stopping pool has drained.
        if (stopping_)
            return false;
        cv_.wait(mu_);
    }
}

void
TaskPool::execute(Task task, Lane lane)
{
#if defined(__linux__)
    // Batch tasks run niced: once every CPU is busy, lane priority alone
    // cannot preempt a batch unit already executing, but the kernel's
    // scheduler can keep favoring the interactive threads. Reversibility
    // was verified in the constructor (batchNiced_ stays false otherwise).
    int base = 0;
    const bool demoted = batchNiced_ && lane == Lane::Batch;
    if (demoted) {
        errno = 0;
        base = getpriority(PRIO_PROCESS, 0);
        if (base == -1 && errno != 0)
            base = 0;
        (void)setpriority(PRIO_PROCESS, 0, base + kBatchNice);
    }
#else
    (void)lane;
#endif
    task();
#if defined(__linux__)
    if (demoted)
        (void)setpriority(PRIO_PROCESS, 0, base);
#endif
    MutexLock lock(mu_);
    --running_;
    ++completed_;
}

} // namespace gga
