/**
 * @file
 * JobTable: the resident service's multi-tenant job registry, and the one
 * place a job finishes.
 *
 * Every submitted RunPlan or Manifest becomes a Job with a process-unique
 * id, a tenant, a lifecycle (Queued -> Running -> Done/Failed/Canceled),
 * and a monotonically increasing version that bumps on every visible
 * change — the long-poll primitive: waitForChange(id, since) blocks until
 * version > since or a timeout.
 *
 * Admission is bounded per tenant: a tenant may hold at most
 * maxQueuedPerTenant jobs in Queued+Running at once; the next submit is
 * rejected with AdmissionError (HTTP 429) instead of queueing unbounded
 * work behind a shared executor.
 *
 * Completion: rows arrive one unit at a time from the local executor
 * (unitDone) or one verified shard part at a time from the Orchestrator
 * (addRows). The table holds them once, in completion order, so clients
 * can stream them (resultsAfter) while the job still runs. Once they
 * cover the manifest, the job is Done if ResultSet::fromRows of the rows
 * verifies complete against it, the check gga_merge applies too.
 *
 * With a Journal, create() writes the job's admit record before it
 * returns the id, and the terminal transition deletes the job's file
 * before the new state is visible, both under the table lock: the lock
 * order is JobTable -> Journal, and the Journal never calls out.
 *
 * Latency telemetry: per-app log2-bucketed histograms of unit wall
 * times, fed by every locally executed unit.
 */

#ifndef GGA_SERVE_JOB_TABLE_HPP
#define GGA_SERVE_JOB_TABLE_HPP

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/manifest.hpp"
#include "eval/result_set.hpp"
#include "eval/run.hpp"
#include "support/thread_annotations.hpp"

namespace gga {

class Journal;

/** Thrown when a tenant's admission quota is exhausted (HTTP 429). */
class AdmissionError : public std::runtime_error
{
  public:
    explicit AdmissionError(const std::string& why)
        : std::runtime_error(why)
    {
    }
};

enum class JobState
{
    Queued,   ///< accepted, no unit finished yet
    Running,  ///< at least one unit (or shard) in flight or finished
    Done,     ///< every unit finished, results complete
    Failed,   ///< a unit plan was invalid or a remote shard exhausted retries
    Canceled, ///< client canceled before completion
};

std::string jobStateName(JobState s);

/** Done, Failed or Canceled: nothing changes the job any more. */
bool isTerminal(JobState s);

/** The n of a "job-<n>" id (admission order); nullopt otherwise. */
std::optional<std::uint64_t> jobNumber(const std::string& id);

/** Log2-bucketed wall-time histogram (bucket i: [2^(i-1), 2^i) ms). */
struct LatencyHistogram
{
    static constexpr std::size_t kBuckets = 16;

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    double totalMs = 0;
    double maxMs = 0;

    void record(double ms);
    Json toJson() const;
};

/** Immutable status snapshot handed to the wire layer. */
struct JobSnapshot
{
    std::string id;
    std::string tenant;
    JobState state = JobState::Queued;
    bool remote = false;
    std::size_t shards = 0;    ///< 0 for local jobs
    std::size_t totalUnits = 0;
    std::size_t completedUnits = 0;
    std::size_t failedUnits = 0;
    std::uint64_t version = 0; ///< long-poll cursor
    std::string error;         ///< first failure, "" while healthy

    Json toJson() const;
};

class JobTable
{
  public:
    /** @p journal, when non-null, records every admission and finish. */
    explicit JobTable(std::size_t maxQueuedPerTenant = 8,
                      Journal* journal = nullptr)
        : maxQueuedPerTenant_(maxQueuedPerTenant), journal_(journal)
    {
    }

    /**
     * Admit a job for @p tenant over @p manifest. Throws AdmissionError
     * when the tenant already holds maxQueuedPerTenant live jobs.
     * Returns the new job id ("job-<n>"), journaled when it returns.
     */
    std::string create(const std::string& tenant, Manifest manifest,
                       bool remote, std::size_t shards);

    /** One job as Journal::recovered() rebuilds it from the log. */
    struct JobRestore
    {
        std::string id; ///< original id ("job-<n>"); numbering resumes past it
        std::string tenant;
        Manifest manifest;
        bool remote = false;
        std::size_t shards = 0;
        std::vector<UnitResult> rows;     ///< the recovered parts' rows
        std::set<std::size_t> doneShards; ///< the shards those parts ran
    };

    /**
     * Re-insert a recovered job under its original id, bypassing the
     * admission bound. It restarts Queued: a local job re-runs from
     * scratch. A remote job keeps its recovered rows, which mark it
     * Running, and when they already cover its manifest it is finished
     * (and its file deleted) here.
     * The id counter resumes past the restored id so new jobs never
     * collide. Quietly ignores an id that already exists.
     */
    void restore(const JobRestore& r);

    /** The job's manifest (throws ServeError-free: nullopt if unknown). */
    std::optional<Manifest> manifestOf(const std::string& id) const;

    /** Record one locally executed unit's completion event. */
    void unitDone(const std::string& id, const UnitEvent& ev);

    /** Remote path: mark running (first shard assigned). */
    void markRunning(const std::string& id);

    /**
     * Remote path: the rows of one verified shard part. The job finishes
     * on the part that makes its rows cover the manifest.
     */
    void addRows(const std::string& id, const std::vector<UnitResult>& rows);

    /** Move the job to Failed with @p why (idempotent once terminal). */
    void fail(const std::string& id, const std::string& why);

    /**
     * Cancel: Queued/Running -> Canceled (true); terminal states are left
     * alone (false). Units already posted to an executor still run; their
     * late events are dropped.
     */
    bool cancel(const std::string& id);

    /** Status snapshot; nullopt for an unknown id. */
    std::optional<JobSnapshot> snapshot(const std::string& id) const;

    /**
     * Long-poll: block until the job's version exceeds @p since or
     * @p waitMs elapses (0 = return immediately); nullopt for an unknown
     * id. Returns promptly once shutdown() has been called.
     */
    std::optional<JobSnapshot> waitForChange(const std::string& id,
                                             std::uint64_t since,
                                             unsigned waitMs) const;

    /** All jobs (optionally one tenant's), newest first. */
    std::vector<JobSnapshot> list(const std::string& tenant = {}) const;

    /**
     * Completed unit rows after row index @p after (completion order),
     * plus whether the job is terminal; nullopt for an unknown id.
     */
    struct RowsPage
    {
        std::vector<UnitResult> rows; ///< rows [after, after+n)
        std::size_t next = 0;         ///< cursor for the next page
        bool terminal = false;
    };
    std::optional<RowsPage> resultsAfter(const std::string& id,
                                         std::size_t after) const;

    /**
     * The finished job's complete ResultSet, key-sorted from its rows
     * (verified at completion); nullopt while not Done or for an unknown
     * id.
     */
    std::optional<ResultSet> finalResults(const std::string& id) const;

    /** Aggregate counts + per-app latency histograms, for /stats. */
    Json statsJson() const;

    /** Wake every long-poller (no more changes will come). */
    void shutdown();

  private:
    struct Job
    {
        std::string id;
        std::string tenant;
        Manifest manifest;
        bool remote = false;
        std::size_t shards = 0;
        JobState state = JobState::Queued;
        std::vector<UnitResult> rows; ///< completion order
        std::size_t failedUnits = 0;
        std::uint64_t version = 1;
        std::string error;
        std::uint64_t seq = 0; ///< creation order, for list()
    };

    JobSnapshot snapshotLocked(const Job& j) const GGA_REQUIRES(mu_);
    /** The job unless it is unknown or terminal. */
    Job* liveLocked(const std::string& id) GGA_REQUIRES(mu_);
    /** Bump the version; a terminal job's journal file goes first. */
    void changedLocked(Job& j) GGA_REQUIRES(mu_);
    /** Mark Running, finish once the rows cover the manifest, bump. */
    void progressLocked(Job& j) GGA_REQUIRES(mu_);
    std::size_t liveCountLocked(const std::string& tenant) const
        GGA_REQUIRES(mu_);

    const std::size_t maxQueuedPerTenant_;
    Journal* const journal_; ///< may be null; internally synchronized
    mutable Mutex mu_;
    mutable CondVar cv_;
    bool shutdown_ GGA_GUARDED_BY(mu_) = false;
    std::uint64_t nextId_ GGA_GUARDED_BY(mu_) = 0;
    std::map<std::string, Job> jobs_ GGA_GUARDED_BY(mu_);
    /** Unit wall-time histograms by app name. */
    std::map<std::string, LatencyHistogram> latency_ GGA_GUARDED_BY(mu_);
};

} // namespace gga

#endif // GGA_SERVE_JOB_TABLE_HPP
