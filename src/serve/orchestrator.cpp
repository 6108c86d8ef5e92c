#include "serve/orchestrator.hpp"

#include <algorithm>

#include "support/faults.hpp"
#include "serve/journal.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace gga {

unsigned
RetryPolicy::backoffMs(unsigned attempt) const
{
    if (attempt == 0)
        return 0;
    unsigned delay = retryBaseMs;
    for (unsigned i = 1; i < attempt && delay < retryCapMs; ++i)
        delay = delay > retryCapMs / 2 ? retryCapMs : delay * 2;
    return std::min(delay, retryCapMs);
}

std::string
Orchestrator::registerWorker(const std::string& name)
{
    MutexLock lock(mu_);
    const std::string id = "w-" + std::to_string(++nextWorker_);
    workers_.emplace(id, name.empty() ? "worker" : name);
    GGA_INFORM("serve: worker ", id, " (", name, ") registered");
    return id;
}

bool
Orchestrator::knownWorker(const std::string& worker) const
{
    MutexLock lock(mu_);
    return workers_.count(worker) != 0;
}

void
Orchestrator::enqueueJob(const std::string& jobId, std::size_t shardCount,
                         const std::set<std::size_t>& doneShards)
{
    GGA_ASSERT(shardCount >= 1, "remote job needs at least one shard");
    const std::optional<Manifest> manifest = jobs_.manifestOf(jobId);
    if (!manifest)
        return;
    if (!doneShards.empty())
        GGA_WARN("serve: restored ", jobId, " with ", doneShards.size(),
                 "/", shardCount, " shard(s) already done");
    MutexLock lock(mu_);
    recoveredParts_ += doneShards.size();
    if (doneShards.size() == shardCount)
        return;
    RemoteJob rj;
    rj.seq = ++nextJobSeq_;
    rj.manifest = *manifest;
    rj.shards.resize(shardCount);
    for (const std::size_t s : doneShards)
        rj.shards.at(s).state = ShardState::Done;
    remote_.emplace(jobId, std::move(rj));
}

std::optional<Assignment>
Orchestrator::poll(const std::string& worker)
{
    MutexLock lock(mu_);
    if (workers_.count(worker) == 0)
        return std::nullopt;
    const auto now = Clock::now();

    // Oldest job first, lowest shard index within it: deterministic and
    // fair, and a retried shard naturally lands on whichever worker
    // polls next (usually not the one that lost it).
    const RemoteJob* bestJob = nullptr;
    std::string bestId;
    std::size_t bestShard = 0;
    for (const auto& [jobId, rj] : remote_) {
        if (bestJob && rj.seq >= bestJob->seq)
            continue;
        for (std::size_t s = 0; s < rj.shards.size(); ++s) {
            const Shard& sh = rj.shards[s];
            if (sh.state == ShardState::Waiting && sh.notBefore <= now) {
                bestJob = &rj;
                bestId = jobId;
                bestShard = s;
                break;
            }
        }
    }
    if (!bestJob)
        return std::nullopt;

    RemoteJob& rj = remote_.at(bestId);
    Shard& sh = rj.shards[bestShard];
    sh.state = ShardState::Assigned;
    sh.worker = worker;
    sh.deadline = now + std::chrono::milliseconds(policy_.leaseMs);
    ++assignments_;

    Assignment a;
    a.job = bestId;
    a.shard = bestShard;
    a.shardCount = rj.shards.size();
    a.manifest = rj.manifest.shard(bestShard, rj.shards.size());
    jobs_.markRunning(bestId);
    GGA_INFORM("serve: shard ", bestShard + 1, "/", rj.shards.size(),
               " of ", bestId, " -> ", worker);
    return a;
}

bool
Orchestrator::renew(const std::string& worker, const std::string& jobId,
                    std::size_t shard)
{
    MutexLock lock(mu_);
    const auto jit = remote_.find(jobId);
    if (jit == remote_.end() || shard >= jit->second.shards.size())
        return false;
    Shard& sh = jit->second.shards[shard];
    if (sh.state != ShardState::Assigned || sh.worker != worker)
        return false;
    sh.deadline = Clock::now() + std::chrono::milliseconds(policy_.leaseMs);
    return true;
}

Orchestrator::PartOutcome
Orchestrator::partArrived(const std::string& worker,
                          const std::string& jobId, std::size_t shard,
                          const ResultSet& part, std::string* error,
                          std::optional<std::uint64_t> checksum)
{
    // Canonical compact JSON of the part, computed outside the lock: the
    // checksum input and (verbatim) what the journal persists. The key
    // coverage check alone would accept a part whose metric VALUES were
    // corrupted in transit; the checksum closes that hole.
    std::string canon;
    std::string preVerifyError;
    if (checksum || journal_ != nullptr)
        canon = part.toJson().dump();
    if (checksum &&
        fnv1a(canon.data(), canon.size()) != *checksum)
        preVerifyError = "part checksum mismatch (corrupted in transit)";

    PartOutcome outcome;
    {
        MutexLock lock(mu_);
        outcome = partArrivedLocked(worker, jobId, shard, part,
                                    preVerifyError, error);
    }
    if (outcome != PartOutcome::Accepted)
        return outcome;
    // Journal before the rows can finish the job: the part is durable
    // before the record that says the job is done.
    if (journal_ != nullptr)
        journal_->part(jobId, shard, canon);
    jobs_.addRows(jobId, part.results());
    return outcome;
}

Orchestrator::PartOutcome
Orchestrator::partFailed(const std::string& worker, const std::string& jobId,
                         std::size_t shard, const std::string& why)
{
    MutexLock lock(mu_);
    return partArrivedLocked(worker, jobId, shard, ResultSet{}, why,
                             nullptr);
}

Orchestrator::PartOutcome
Orchestrator::partArrivedLocked(const std::string& worker,
                                const std::string& jobId,
                                std::size_t shard, const ResultSet& part,
                                const std::string& preVerifyError,
                                std::string* error)
{
    if (workers_.count(worker) == 0)
        return PartOutcome::Unknown;
    const auto jit = remote_.find(jobId);
    if (jit == remote_.end() || shard >= jit->second.shards.size())
        return PartOutcome::Unknown;
    RemoteJob& rj = jit->second;
    Shard& sh = rj.shards[shard];
    if (sh.state == ShardState::Done) {
        ++duplicateParts_;
        GGA_INFORM("serve: duplicate part for shard ", shard + 1, "/",
                   rj.shards.size(), " of ", jobId, " from ", worker,
                   " discarded");
        return PartOutcome::Duplicate;
    }

    // Verify against the shard's sub-manifest: a worker must return
    // exactly the units it was assigned, nothing thinner, nothing else.
    // A checksum mismatch found by the caller fails the shard the same
    // way — the payload can't be trusted at all.
    std::string why = preVerifyError;
    if (why.empty()) {
        try {
            part.verifyComplete(
                rj.manifest.shard(shard, rj.shards.size()));
        } catch (const EvalError& err) {
            why = err.what();
        }
    }
    if (!why.empty()) {
        ++rejectedParts_;
        ++sh.attempts;
        if (error)
            *error = why;
        if (sh.attempts >= policy_.maxAttempts) {
            failJobLocked(jobId, "shard " + std::to_string(shard) +
                                     " exhausted retries: " + why);
            return PartOutcome::Rejected;
        }
        sh.state = ShardState::Waiting;
        sh.worker.clear();
        sh.notBefore = Clock::now() + std::chrono::milliseconds(
                                          policy_.backoffMs(sh.attempts));
        ++retries_;
        GGA_WARN("serve: part for shard ", shard + 1, "/",
                 rj.shards.size(), " of ", jobId, " rejected (", why,
                 "); retrying");
        return PartOutcome::Rejected;
    }

    sh.state = ShardState::Done;
    sh.worker.clear();
    ++completedShards_;
    // The last part takes the job out of the pool: a straggler is Unknown.
    if (std::all_of(rj.shards.begin(), rj.shards.end(), [](const Shard& s) {
            return s.state == ShardState::Done;
        }))
        remote_.erase(jit);
    return PartOutcome::Accepted;
}

void
Orchestrator::tick()
{
    std::vector<std::pair<std::string, std::string>> failures;
    {
        MutexLock lock(mu_);
        const auto now = Clock::now();
        for (auto& [jobId, rj] : remote_) {
            for (std::size_t s = 0; s < rj.shards.size(); ++s) {
                Shard& sh = rj.shards[s];
                if (sh.state != ShardState::Assigned)
                    continue;
                // Fault injection: force this lease to expire now, as if
                // the worker had gone silent past the deadline.
                const bool forced = faults::fire("lease.expire");
                if (sh.deadline > now && !forced)
                    continue;
                ++expiredLeases_;
                ++sh.attempts;
                GGA_WARN("serve: lease expired on shard ", s + 1, "/",
                         rj.shards.size(), " of ", jobId, " (worker ",
                         sh.worker, ", attempt ", sh.attempts, ")");
                if (sh.attempts >= policy_.maxAttempts) {
                    failures.emplace_back(
                        jobId, "shard " + std::to_string(s) +
                                   " exhausted " +
                                   std::to_string(policy_.maxAttempts) +
                                   " attempts (lost workers)");
                    break;
                }
                sh.state = ShardState::Waiting;
                sh.worker.clear();
                sh.notBefore =
                    now + std::chrono::milliseconds(
                              policy_.backoffMs(sh.attempts));
                ++retries_;
            }
        }
        for (const auto& [jobId, why] : failures) {
            (void)why;
            remote_.erase(jobId);
        }
    }
    for (const auto& [jobId, why] : failures)
        jobs_.fail(jobId, why);
}

void
Orchestrator::forgetJob(const std::string& jobId)
{
    MutexLock lock(mu_);
    remote_.erase(jobId);
}

Json
Orchestrator::statsJson() const
{
    MutexLock lock(mu_);
    std::uint64_t assigned = 0, waiting = 0;
    for (const auto& [jobId, rj] : remote_) {
        (void)jobId;
        for (const Shard& s : rj.shards) {
            if (s.state == ShardState::Assigned)
                ++assigned;
            else if (s.state == ShardState::Waiting)
                ++waiting;
        }
    }
    Json j = Json::object();
    j.set("workers", Json(static_cast<std::uint64_t>(workers_.size())));
    j.set("jobs_in_flight",
          Json(static_cast<std::uint64_t>(remote_.size())));
    j.set("shards_assigned", Json(assigned));
    j.set("shards_waiting", Json(waiting));
    j.set("assignments_total", Json(assignments_));
    j.set("completed_shards_total", Json(completedShards_));
    j.set("retries_total", Json(retries_));
    j.set("expired_leases_total", Json(expiredLeases_));
    j.set("rejected_parts_total", Json(rejectedParts_));
    j.set("duplicate_parts_total", Json(duplicateParts_));
    j.set("recovered_parts_total", Json(recoveredParts_));
    return j;
}

void
Orchestrator::failJobLocked(const std::string& jobId,
                            const std::string& why)
{
    remote_.erase(jobId);
    // JobTable has its own lock; safe to call while holding mu_ because
    // JobTable never calls back into the Orchestrator.
    jobs_.fail(jobId, why);
}

} // namespace gga
