#include "api/task_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "support/faults.hpp"
#include "support/log.hpp"

#if defined(__linux__)
#include <cerrno>
#include <pthread.h>
#include <sched.h>
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

bool
defaultPinThreads()
{
    const char* env = std::getenv("GGA_PIN_THREADS");
    if (env == nullptr)
        return false;
    const std::string_view value(env);
    return !value.empty() && value != "0" && value != "false";
}

TaskPool::TaskPool(TaskPoolOptions opts)
{
    unsigned requested = std::clamp(opts.threads, 1u, kMaxThreads);
    if (opts.threads > kMaxThreads)
        GGA_WARN("TaskPool width ", opts.threads, " clamped to ",
                 kMaxThreads);
    pinThreads_ = opts.pinThreads.value_or(defaultPinThreads());
#if defined(__linux__)
    if (opts.batchNice != 0 && canAdjustNice())
        batchNice_ = opts.batchNice;
#endif

    // All Worker objects (and their deques) must exist before any thread
    // starts: a worker spawned early probes its siblings' deques.
    workers_.reserve(requested);
    for (unsigned t = 0; t < requested; ++t)
        workers_.push_back(std::make_unique<Worker>(t));

    for (auto& w : workers_) {
        try {
            Worker* self = w.get();
            w->thread = std::thread([this, self] { workerLoop(*self); });
        } catch (const std::system_error& e) {
            // Out of thread resources: run with what we got. Running
            // workers hold pointers into workers_, so it must not
            // shrink; the threadless tail just owns forever-empty
            // deques. With zero workers there is no pool to salvage.
            if (spawned_ == 0) {
                workers_.clear();
                throw;
            }
            GGA_WARN("TaskPool spawned ", spawned_, " of ", requested,
                     " workers (", e.what(),
                     "); continuing at reduced width");
            break;
        }
        ++spawned_;
    }
}

TaskPool::~TaskPool()
{
    {
        MutexLock lock(mu_);
        stopping_ = true;
        ++version_;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

std::size_t
TaskPool::pending() const
{
    return pending(Lane::Interactive) + pending(Lane::Batch);
}

std::size_t
TaskPool::pending(Lane lane) const
{
    const unsigned l = laneIndex(lane);
    std::size_t total = 0;
    {
        MutexLock lock(mu_);
        total += injected_[l].size();
        for (const std::vector<Task>& batch : expanders_[l])
            total += batch.size();
    }
    for (const auto& w : workers_)
        total += w->deq[l].sizeEstimate();
    return total;
}

unsigned
TaskPool::active() const
{
    return active_.load(std::memory_order_relaxed);
}

std::uint64_t
TaskPool::completedTotal() const
{
    return completed_.load(std::memory_order_relaxed);
}

TaskPool::Stats
TaskPool::stats() const
{
    Stats s;
    s.interactiveDepth = pending(Lane::Interactive);
    s.batchDepth = pending(Lane::Batch);
    s.stealsTotal = steals_.load(std::memory_order_relaxed);
    s.stealFailures = stealFailures_.load(std::memory_order_relaxed);
    s.pinned = pinThreads_ &&
               pinnedWorkers_.load(std::memory_order_relaxed) == width();
    s.batchNiced = batchNice_ != 0;
    return s;
}

void
TaskPool::post(Task job, Lane lane)
{
    GGA_ASSERT(job, "TaskPool::post requires a callable job");
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    {
        MutexLock lock(mu_);
        GGA_ASSERT(!stopping_, "TaskPool::post after shutdown began");
        injected_[laneIndex(lane)].push_back(std::move(job));
        ++version_;
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
    outstanding_.fetch_add(jobs.size(), std::memory_order_acq_rel);
    {
        MutexLock lock(mu_);
        GGA_ASSERT(!stopping_, "TaskPool::postAll after shutdown began");
        expanders_[laneIndex(lane)].push_back(std::move(jobs));
        ++version_;
    }
    // Everyone: the batch is about to fan out across the deques.
    cv_.notify_all();
}

void
TaskPool::workerLoop(Worker& self)
{
    if (pinThreads_)
        pinSelf(self.index);
    for (;;) {
        std::uint64_t scanned = 0;
        {
            MutexLock lock(mu_);
            scanned = version_;
        }
        if (runOne(self))
            continue;
        // The scan found nothing. Sleep only if nothing became visible
        // since we recorded the version: a producer bumps version_
        // (under mu_) after publishing, so either we see its version
        // bump here or the scan saw its work.
        MutexLock lock(mu_);
        while (version_ == scanned &&
               !(stopping_ &&
                 outstanding_.load(std::memory_order_acquire) == 0))
            cv_.wait(mu_);
        if (stopping_ && outstanding_.load(std::memory_order_acquire) == 0)
            return;
    }
}

bool
TaskPool::runOne(Worker& self)
{
    Task task;
    Lane lane = Lane::Interactive;
    if (!takeFromLane(self, Lane::Interactive, task)) {
        if (!takeFromLane(self, Lane::Batch, task))
            return false;
        lane = Lane::Batch;
    }
    // Deterministic schedule perturbation: the determinism tests arm
    // this site to prove results cannot depend on interleaving.
    if (faults::fire("pool.yield"))
        std::this_thread::yield();
    execute(std::move(task), lane);
    return true;
}

bool
TaskPool::takeFromLane(Worker& self, Lane lane, Task& out)
{
    const unsigned l = laneIndex(lane);
    Task* node = nullptr;
    if (self.deq[l].popBottom(node)) {
        const std::unique_ptr<Task> owned(node);
        out = std::move(*owned);
        return true;
    }
    if (takeInjected(lane, out))
        return true;
    if (takeExpander(self, lane)) {
        if (self.deq[l].popBottom(node)) {
            const std::unique_ptr<Task> owned(node);
            out = std::move(*owned);
            return true;
        }
        // The whole batch was stolen before our own pop — fall through
        // and steal some of it back.
    }
    return stealFromSiblings(self, lane, out);
}

bool
TaskPool::takeInjected(Lane lane, Task& out)
{
    MutexLock lock(mu_);
    std::deque<Task>& queue = injected_[laneIndex(lane)];
    if (queue.empty())
        return false;
    out = std::move(queue.front());
    queue.pop_front();
    return true;
}

bool
TaskPool::takeExpander(Worker& self, Lane lane)
{
    const unsigned l = laneIndex(lane);
    std::vector<Task> batch;
    {
        MutexLock lock(mu_);
        std::deque<std::vector<Task>>& queue = expanders_[l];
        if (queue.empty())
            return false;
        batch = std::move(queue.front());
        queue.pop_front();
    }
    // Owner-push in reverse: popBottom is LIFO, so the owner consumes in
    // batch order; thieves take from the other end regardless.
    for (std::size_t i = batch.size(); i-- > 0;) {
        auto node = std::make_unique<Task>(std::move(batch[i]));
        self.deq[l].pushBottom(node.release());
    }
    // The units are now visible in this worker's deque; wake every
    // sibling to come steal.
    announce(true);
    return true;
}

bool
TaskPool::stealFromSiblings(Worker& self, Lane lane, Task& out)
{
    const std::size_t count = workers_.size();
    if (count < 2)
        return false;
    const unsigned l = laneIndex(lane);
    const std::size_t start = self.rng.nextBounded(count);
    for (std::size_t probe = 0; probe < count; ++probe) {
        Worker& victim = *workers_[(start + probe) % count];
        if (&victim == &self)
            continue;
        bool victimEmpty = false;
        while (!victimEmpty) {
            Task* node = nullptr;
            switch (victim.deq[l].steal(node)) {
            case WorkStealDeque<Task*>::Steal::Got: {
                steals_.fetch_add(1, std::memory_order_relaxed);
                const std::unique_ptr<Task> owned(node);
                out = std::move(*owned);
                // Cascade: the victim still has work, so make sure
                // another sleeper comes for it too.
                if (victim.deq[l].sizeEstimate() > 0)
                    announce(false);
                return true;
            }
            case WorkStealDeque<Task*>::Steal::Abort:
                // Lost a race — an element exists, keep contending.
                stealFailures_.fetch_add(1, std::memory_order_relaxed);
                break;
            case WorkStealDeque<Task*>::Steal::Empty:
                victimEmpty = true;
                break;
            }
        }
    }
    return false;
}

void
TaskPool::execute(Task task, Lane lane)
{
    active_.fetch_add(1, std::memory_order_relaxed);
#if defined(__linux__)
    // Batch tasks run niced: once every CPU is busy, lane priority alone
    // cannot preempt a batch unit already executing, but the kernel's
    // scheduler can keep favoring the interactive threads. Reversibility
    // was verified in the constructor (batchNice_ stays 0 otherwise).
    int base = 0;
    const bool demoted = batchNice_ != 0 && lane == Lane::Batch;
    if (demoted) {
        errno = 0;
        base = getpriority(PRIO_PROCESS, 0);
        if (base == -1 && errno != 0)
            base = 0;
        (void)setpriority(PRIO_PROCESS, 0, base + batchNice_);
    }
#else
    (void)lane;
#endif
    task();
#if defined(__linux__)
    if (demoted)
        (void)setpriority(PRIO_PROCESS, 0, base);
#endif
    active_.fetch_sub(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    // Last outstanding task: wake everyone so draining workers (and the
    // destructor's exit predicate) observe the zero.
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        announce(true);
}

void
TaskPool::announce(bool everyone)
{
    {
        MutexLock lock(mu_);
        ++version_;
    }
    if (everyone)
        cv_.notify_all();
    else
        cv_.notify_one();
}

void
TaskPool::pinSelf(unsigned index)
{
#if defined(__linux__)
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(index % cores, &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
        pinnedWorkers_.fetch_add(1, std::memory_order_relaxed);
    } else {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            GGA_WARN("TaskPool: pthread_setaffinity_np failed; workers "
                     "run unpinned");
    }
#else
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        GGA_WARN("TaskPool: thread pinning is unsupported on this "
                 "platform; workers run unpinned");
    (void)index;
#endif
}

} // namespace gga
