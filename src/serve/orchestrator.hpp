/**
 * @file
 * Orchestrator: shard assignment, lease tracking, and retry for remote
 * jobs. It knows who holds which shard and until when; the results
 * themselves live in the JobTable.
 *
 * A remote job is a manifest split into N shards (Manifest::shard, the
 * same deterministic split the offline gga_worker CLI uses). Registered
 * workers pull assignments (poll), run the shard in their own process,
 * and push the shard's ResultSet back (partArrived). Every assignment
 * carries a lease, which the worker renews while it runs the shard: a
 * worker that dies or stalls stops renewing, tick() notices the expiry,
 * and the shard is reassigned with capped exponential backoff. A part is
 * verified against its shard's sub-manifest on arrival — a wrong or
 * partial part is rejected and the shard retried — and a duplicate part
 * for a shard that already completed (a slow worker racing its own
 * replacement) is discarded and counted, never added twice. A verified
 * part is journaled, then its rows go to JobTable::addRows, where the
 * job finishes like a local one once the rows cover its manifest — so a
 * served remote job is byte-identical to an in-process runManifest.
 *
 * Threading: every public method is safe to call from any connection
 * thread; tick() is driven by the server's ticker. Lock order:
 * Orchestrator -> JobTable -> Journal.
 */

#ifndef GGA_SERVE_ORCHESTRATOR_HPP
#define GGA_SERVE_ORCHESTRATOR_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "eval/manifest.hpp"
#include "eval/result_set.hpp"
#include "serve/job_table.hpp"
#include "support/thread_annotations.hpp"

namespace gga {

class Journal;

/** Lease/retry policy for remote shard execution. */
struct RetryPolicy
{
    unsigned leaseMs = 15000;    ///< assignment expires after this
    unsigned retryBaseMs = 500;  ///< first retry delay
    unsigned retryCapMs = 8000;  ///< exponential backoff ceiling
    unsigned maxAttempts = 6;    ///< per shard; exhausted -> job fails

    /** min(base * 2^(attempt-1), cap) without wrapping; 1-based. */
    unsigned backoffMs(unsigned attempt) const;
};

/** One pulled assignment, as handed to a worker. */
struct Assignment
{
    std::string job;
    std::size_t shard = 0;
    std::size_t shardCount = 0;
    Manifest manifest; ///< the shard's sub-manifest
};

class Orchestrator
{
  public:
    using Clock = std::chrono::steady_clock;

    /** @p journal, when non-null, receives every verified part. */
    Orchestrator(JobTable& jobs, RetryPolicy policy,
                 Journal* journal = nullptr)
        : jobs_(jobs), policy_(policy), journal_(journal)
    {
    }

    /** Register a worker; returns its id ("w-<n>"). */
    std::string registerWorker(const std::string& name);

    /** Known worker? (Unknown ids are rejected at the wire layer.) */
    bool knownWorker(const std::string& worker) const;

    /**
     * Add a remote job's shards to the assignment pool, all but
     * @p doneShards: shards whose parts were recovered from the journal
     * (counted in recovered_parts_total, never re-executed). A job with
     * every shard done is not pooled; JobTable::restore finished it.
     * @p shardCount must be >= 1; the manifest is fetched from the
     * JobTable by id (an unknown id is ignored).
     */
    void enqueueJob(const std::string& jobId, std::size_t shardCount,
                    const std::set<std::size_t>& doneShards = {});

    /**
     * Pull the next runnable shard for @p worker: the oldest job's
     * lowest-index unassigned shard whose backoff has elapsed. nullopt
     * when nothing is runnable (idle) or the worker is unknown.
     */
    std::optional<Assignment> poll(const std::string& worker);

    /**
     * Push the lease on @p shard of @p jobId to now + leaseMs. False
     * unless @p worker still holds that lease.
     */
    bool renew(const std::string& worker, const std::string& jobId,
               std::size_t shard);

    /** Outcome of partArrived, for the wire layer's status code. */
    enum class PartOutcome
    {
        Accepted,  ///< verified and recorded (job may now be done)
        Duplicate, ///< shard already completed; part discarded
        Rejected,  ///< failed verification; shard will be retried
        Unknown,   ///< no such job/shard/worker
    };

    /**
     * A worker's completed shard part. Verifies the part against the
     * shard's sub-manifest, journals it (when a Journal was wired at
     * construction), and hands its rows to JobTable::addRows, which
     * finishes the job on its last part. @p error receives the
     * verification failure on Rejected. @p checksum, when present, is
     * the worker's FNV-1a over the part's compact JSON; a mismatch (bit
     * rot in transit) is Rejected before the manifest check.
     */
    PartOutcome partArrived(const std::string& worker,
                            const std::string& jobId, std::size_t shard,
                            const ResultSet& part, std::string* error = nullptr,
                            std::optional<std::uint64_t> checksum =
                                std::nullopt);

    /**
     * A worker could not run its shard: @p why rejects the attempt like
     * a part that failed verification — a retry with backoff (another
     * worker may succeed), then the job fails with "exhausted retries:
     * <why>".
     */
    PartOutcome partFailed(const std::string& worker,
                           const std::string& jobId, std::size_t shard,
                           const std::string& why);

    /**
     * Expire overdue leases: a shard assigned longer ago than the lease
     * becomes runnable again after backoff, counting one attempt; a
     * shard out of attempts fails its whole job. Called periodically by
     * the server's ticker.
     */
    void tick();

    /** Drop a job's unfinished shards (after cancel/failure). */
    void forgetJob(const std::string& jobId);

    /** Telemetry for /stats. */
    Json statsJson() const;

  private:
    enum class ShardState
    {
        Waiting,  ///< runnable once notBefore has passed
        Assigned, ///< leased to a worker
        Done,     ///< part verified and handed to the JobTable
    };

    struct Shard
    {
        ShardState state = ShardState::Waiting;
        unsigned attempts = 0;
        std::string worker;
        Clock::time_point notBefore{}; ///< backoff gate (Waiting)
        Clock::time_point deadline{};  ///< lease expiry (Assigned)
    };

    struct RemoteJob
    {
        std::uint64_t seq = 0; ///< FIFO fairness across jobs
        Manifest manifest;
        std::vector<Shard> shards;
    };

    /** Fails the job and drops its shard state. */
    void failJobLocked(const std::string& jobId, const std::string& why)
        GGA_REQUIRES(mu_);

    /**
     * The locked body of partArrived and partFailed: verifies @p part
     * and marks the shard Done, or counts the attempt and retries it.
     * @p preVerifyError, when non-empty, fails verification outright
     * (the caller's checksum check, done outside the lock).
     */
    PartOutcome partArrivedLocked(const std::string& worker,
                                  const std::string& jobId,
                                  std::size_t shard, const ResultSet& part,
                                  const std::string& preVerifyError,
                                  std::string* error) GGA_REQUIRES(mu_);

    JobTable& jobs_;
    const RetryPolicy policy_;
    Journal* const journal_; ///< may be null; internally synchronized
    mutable Mutex mu_;
    std::uint64_t nextWorker_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t nextJobSeq_ GGA_GUARDED_BY(mu_) = 0;
    /** Registered worker ids -> advisory names. */
    std::map<std::string, std::string> workers_ GGA_GUARDED_BY(mu_);
    std::map<std::string, RemoteJob> remote_ GGA_GUARDED_BY(mu_);
    // Lifetime counters (monotonic).
    std::uint64_t assignments_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t retries_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t expiredLeases_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t rejectedParts_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t duplicateParts_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t completedShards_ GGA_GUARDED_BY(mu_) = 0;
    /** Shards restored Done from the journal (not re-executed here). */
    std::uint64_t recoveredParts_ GGA_GUARDED_BY(mu_) = 0;
};

} // namespace gga

#endif // GGA_SERVE_ORCHESTRATOR_HPP
