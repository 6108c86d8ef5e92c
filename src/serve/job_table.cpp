#include "serve/job_table.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "serve/journal.hpp"
#include "support/log.hpp"
#include "support/parse.hpp"

namespace gga {

std::string
jobStateName(JobState s)
{
    switch (s) {
    case JobState::Queued:   return "queued";
    case JobState::Running:  return "running";
    case JobState::Done:     return "done";
    case JobState::Failed:   return "failed";
    case JobState::Canceled: return "canceled";
    }
    return "unknown";
}

bool
isTerminal(JobState s)
{
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Canceled;
}

std::optional<JobState>
jobStateFromName(const std::string& name)
{
    for (const JobState s :
         {JobState::Queued, JobState::Running, JobState::Done,
          JobState::Failed, JobState::Canceled})
        if (jobStateName(s) == name)
            return s;
    return std::nullopt;
}

void
LatencyHistogram::record(double ms)
{
    ++count;
    totalMs += ms;
    maxMs = std::max(maxMs, ms);
    std::size_t b = 0;
    // Bucket i covers [2^(i-1), 2^i) ms; everything under 1ms lands in 0.
    while (b + 1 < kBuckets && ms >= static_cast<double>(1ull << b))
        ++b;
    ++buckets[b];
}

Json
LatencyHistogram::toJson() const
{
    Json j = Json::object();
    j.set("count", Json(count));
    j.set("total_ms", Json(totalMs));
    j.set("max_ms", Json(maxMs));
    Json b = Json::array();
    for (const std::uint64_t n : buckets)
        b.push(Json(n));
    j.set("buckets_log2_ms", std::move(b));
    return j;
}

Json
JobSnapshot::toJson() const
{
    Json j = Json::object();
    j.set("id", Json(id));
    j.set("tenant", Json(tenant));
    j.set("state", Json(jobStateName(state)));
    j.set("execution", Json(remote ? "remote" : "local"));
    if (remote)
        j.set("shards", Json(static_cast<std::uint64_t>(shards)));
    j.set("total_units", Json(static_cast<std::uint64_t>(totalUnits)));
    j.set("completed_units",
          Json(static_cast<std::uint64_t>(completedUnits)));
    j.set("failed_units", Json(static_cast<std::uint64_t>(failedUnits)));
    j.set("version", Json(version));
    if (!error.empty())
        j.set("error", Json(error));
    return j;
}

std::string
JobTable::create(const std::string& tenant, Manifest manifest, bool remote,
                 std::size_t shards)
{
    MutexLock lock(mu_);
    if (liveCountLocked(tenant) >= maxQueuedPerTenant_)
        throw AdmissionError("tenant '" + tenant + "' already has " +
                             std::to_string(maxQueuedPerTenant_) +
                             " queued or running jobs");
    Job j;
    j.seq = ++nextId_;
    j.id = "job-" + std::to_string(j.seq);
    j.tenant = tenant;
    j.manifest = std::move(manifest);
    j.remote = remote;
    j.shards = shards;
    const std::string id = j.id;
    jobs_.emplace(id, std::move(j));
    cv_.notify_all();
    return id;
}

void
JobTable::restore(const JobRestore& r)
{
    MutexLock lock(mu_);
    if (jobs_.count(r.id) != 0) {
        GGA_WARN("serve: restore of ", r.id, " ignored (id exists)");
        return;
    }
    Job j;
    j.id = r.id;
    j.tenant = r.tenant;
    j.manifest = r.manifest;
    j.remote = r.remote;
    j.shards = r.shards;
    j.state = r.remote ? r.state : JobState::Queued;
    j.error = r.error;
    j.rows = r.rows;
    // Resume numbering past the restored id so new jobs never collide.
    std::uint64_t seq = 0;
    if (r.id.rfind("job-", 0) == 0)
        seq = parseUnsigned<std::uint64_t>(r.id.substr(4)).value_or(0);
    if (seq == 0)
        seq = nextId_ + 1;
    nextId_ = std::max(nextId_, seq);
    j.seq = seq;
    Job& restored = jobs_.emplace(r.id, std::move(j)).first->second;
    // The crash may have hit between a job's last part and its done
    // record: then its rows already cover the manifest.
    if (r.remote && !r.rows.empty())
        progressLocked(restored);
    cv_.notify_all();
}

std::optional<Manifest>
JobTable::manifestOf(const std::string& id) const
{
    MutexLock lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return it->second.manifest;
}

void
JobTable::unitDone(const std::string& id, const UnitEvent& ev)
{
    MutexLock lock(mu_);
    if (!ev.appName.empty())
        latency_[ev.appName].record(ev.millis);
    Job* j = liveLocked(id);
    if (!j)
        return; // late event for a canceled/failed job
    if (ev.result) {
        j->rows.push_back(*ev.result);
    } else {
        ++j->failedUnits;
        if (j->error.empty())
            j->error = ev.error;
    }
    progressLocked(*j);
}

void
JobTable::markRunning(const std::string& id)
{
    MutexLock lock(mu_);
    Job* j = liveLocked(id);
    if (j && j->state == JobState::Queued)
        progressLocked(*j);
}

void
JobTable::addRows(const std::string& id, const std::vector<UnitResult>& rows)
{
    MutexLock lock(mu_);
    Job* j = liveLocked(id);
    if (!j)
        return;
    j->rows.insert(j->rows.end(), rows.begin(), rows.end());
    progressLocked(*j);
}

void
JobTable::fail(const std::string& id, const std::string& why)
{
    MutexLock lock(mu_);
    Job* j = liveLocked(id);
    if (!j)
        return;
    const JobState before = j->state;
    j->state = JobState::Failed;
    if (j->error.empty())
        j->error = why;
    changedLocked(*j, before);
}

bool
JobTable::cancel(const std::string& id)
{
    MutexLock lock(mu_);
    Job* j = liveLocked(id);
    if (!j)
        return false;
    const JobState before = j->state;
    j->state = JobState::Canceled;
    changedLocked(*j, before);
    return true;
}

std::optional<JobSnapshot>
JobTable::snapshot(const std::string& id) const
{
    MutexLock lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return snapshotLocked(it->second);
}

std::optional<JobSnapshot>
JobTable::waitForChange(const std::string& id, std::uint64_t since,
                        unsigned waitMs) const
{
    MutexLock lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(waitMs);
    while (true) {
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            return std::nullopt;
        if (it->second.version > since || shutdown_)
            return snapshotLocked(it->second);
        if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
            const auto again = jobs_.find(id);
            if (again == jobs_.end())
                return std::nullopt;
            return snapshotLocked(again->second);
        }
    }
}

std::vector<JobSnapshot>
JobTable::list(const std::string& tenant) const
{
    std::vector<std::pair<std::uint64_t, JobSnapshot>> rows;
    {
        MutexLock lock(mu_);
        for (const auto& [id, j] : jobs_) {
            (void)id;
            if (!tenant.empty() && j.tenant != tenant)
                continue;
            rows.emplace_back(j.seq, snapshotLocked(j));
        }
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<JobSnapshot> out;
    out.reserve(rows.size());
    for (auto& [seq, snap] : rows) {
        (void)seq;
        out.push_back(std::move(snap));
    }
    return out;
}

std::optional<JobTable::RowsPage>
JobTable::resultsAfter(const std::string& id, std::size_t after) const
{
    MutexLock lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    const Job& j = it->second;
    RowsPage page;
    if (after < j.rows.size())
        page.rows.assign(j.rows.begin() +
                             static_cast<std::ptrdiff_t>(after),
                         j.rows.end());
    page.next = j.rows.size();
    page.terminal = isTerminal(j.state);
    return page;
}

std::optional<ResultSet>
JobTable::finalResults(const std::string& id) const
{
    std::vector<UnitResult> rows;
    {
        MutexLock lock(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end() || it->second.state != JobState::Done)
            return std::nullopt;
        rows = it->second.rows;
    }
    // Re-sorting by key makes the set bit-identical to the blocking
    // runManifest path's; the rows were verified when the job finished.
    return ResultSet::fromRows(std::move(rows));
}

Json
JobTable::statsJson() const
{
    MutexLock lock(mu_);
    std::uint64_t queued = 0, running = 0, done = 0, failed = 0,
                  canceled = 0;
    std::map<std::string, std::uint64_t> perTenant;
    for (const auto& [id, j] : jobs_) {
        (void)id;
        ++perTenant[j.tenant];
        switch (j.state) {
        case JobState::Queued:   ++queued; break;
        case JobState::Running:  ++running; break;
        case JobState::Done:     ++done; break;
        case JobState::Failed:   ++failed; break;
        case JobState::Canceled: ++canceled; break;
        }
    }
    Json jobs = Json::object();
    jobs.set("total", Json(static_cast<std::uint64_t>(jobs_.size())));
    jobs.set("queued", Json(queued));
    jobs.set("running", Json(running));
    jobs.set("done", Json(done));
    jobs.set("failed", Json(failed));
    jobs.set("canceled", Json(canceled));
    Json tenants = Json::object();
    for (const auto& [name, n] : perTenant)
        tenants.set(name, Json(n));
    Json lat = Json::object();
    for (const auto& [app, hist] : latency_)
        lat.set(app, hist.toJson());
    Json out = Json::object();
    out.set("jobs", std::move(jobs));
    out.set("jobs_by_tenant", std::move(tenants));
    out.set("unit_latency_ms_by_app", std::move(lat));
    return out;
}

void
JobTable::shutdown()
{
    MutexLock lock(mu_);
    shutdown_ = true;
    cv_.notify_all();
}

JobSnapshot
JobTable::snapshotLocked(const Job& j) const
{
    JobSnapshot s;
    s.id = j.id;
    s.tenant = j.tenant;
    s.state = j.state;
    s.remote = j.remote;
    s.shards = j.shards;
    s.totalUnits = j.manifest.size();
    s.completedUnits = j.rows.size();
    s.failedUnits = j.failedUnits;
    s.version = j.version;
    s.error = j.error;
    return s;
}

JobTable::Job*
JobTable::liveLocked(const std::string& id)
{
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || isTerminal(it->second.state))
        return nullptr;
    return &it->second;
}

void
JobTable::changedLocked(Job& j, JobState before)
{
    if (journal_ != nullptr && j.state != before) {
        journal_->state(j.id, j.state, j.error);
        if (isTerminal(j.state))
            journal_->finish(j.id);
    }
    ++j.version;
    cv_.notify_all();
}

void
JobTable::progressLocked(Job& j)
{
    const JobState before = j.state;
    j.state = JobState::Running;
    if (j.rows.size() + j.failedUnits >= j.manifest.size()) {
        j.state = JobState::Failed;
        try {
            if (j.failedUnits == 0) {
                ResultSet::fromRows(j.rows).verifyComplete(j.manifest);
                j.state = JobState::Done;
            }
        } catch (const EvalError& err) {
            if (j.error.empty())
                j.error = err.what();
        }
    }
    changedLocked(j, before);
}

std::size_t
JobTable::liveCountLocked(const std::string& tenant) const
{
    std::size_t n = 0;
    for (const auto& [id, j] : jobs_) {
        (void)id;
        if (j.tenant == tenant && !isTerminal(j.state))
            ++n;
    }
    return n;
}

} // namespace gga
