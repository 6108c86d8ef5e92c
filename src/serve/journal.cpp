#include "serve/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "support/faults.hpp"
#include "serve/http.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace gga {

std::string
Journal::journalPath() const
{
    return dir_ + "/journal.jsonl";
}

std::string
Journal::partPath(const std::string& job, std::size_t shard) const
{
    return dir_ + "/parts/" + job + ".s" + std::to_string(shard) + ".json";
}

Journal::Journal(std::string stateDir) : dir_(std::move(stateDir))
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir_ + "/parts", ec);
    if (ec)
        throw ServeError("state-dir '" + dir_ + "': " + ec.message());

    // --- replay ----------------------------------------------------------
    struct Pending
    {
        JobTable::JobRestore job;
        JobRecords recs;
    };
    std::vector<std::string> order;
    std::map<std::string, Pending> pending;
    std::ifstream in(journalPath());
    std::string line;
    std::size_t lineNo = 0;
    while (in && std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        try {
            const Json rec = Json::parse(line);
            const std::string t = rec.at("t").asString();
            const std::string job = rec.at("job").asString();
            if (t == "admit") {
                Pending p;
                p.job.id = job;
                p.job.tenant = rec.at("tenant").asString();
                p.job.remote = rec.at("remote").asBool();
                p.job.shards =
                    static_cast<std::size_t>(rec.at("shards").asU64());
                p.job.manifest = Manifest::fromJson(rec.at("manifest"));
                p.recs.admitLine = line;
                if (pending.emplace(job, std::move(p)).second)
                    order.push_back(job);
            } else if (t == "state") {
                const auto it = pending.find(job);
                if (it == pending.end())
                    continue; // job already compacted away
                const std::string name = rec.at("state").asString();
                const std::optional<JobState> s = jobStateFromName(name);
                if (!s)
                    throw JsonError("unknown job state '" + name + "'");
                it->second.job.state = *s;
                if (const Json* e = rec.find("error"))
                    it->second.job.error = e->asString();
                it->second.recs.stateLine = line;
            } else if (t == "part") {
                const auto it = pending.find(job);
                if (it == pending.end())
                    continue;
                JobTable::JobRestore& rj = it->second.job;
                const std::size_t shard =
                    static_cast<std::size_t>(rec.at("shard").asU64());
                const std::uint64_t sum = rec.at("checksum").asU64();
                // A part that fails its checksum (or won't parse, or is
                // not one of the job's shards) is not tail damage: drop
                // just this shard and let it re-run.
                try {
                    if (shard >= rj.shards || rj.doneShards.count(shard))
                        throw EvalError("not an open shard of a " +
                                        std::to_string(rj.shards) +
                                        "-shard job");
                    const std::string text =
                        readTextFile(partPath(job, shard));
                    if (fnv1a(text.data(), text.size()) != sum)
                        throw EvalError("part checksum mismatch");
                    const ResultSet part =
                        ResultSet::fromJson(Json::parse(text));
                    rj.rows.insert(rj.rows.end(), part.results().begin(),
                                   part.results().end());
                    rj.doneShards.insert(shard);
                    it->second.recs.partLines[shard] = line;
                } catch (const std::exception& err) {
                    ++droppedParts_;
                    GGA_WARN("journal: dropping part shard ", shard,
                             " of ", job, " (", err.what(),
                             "); the shard will re-run");
                }
            } else {
                throw JsonError("unknown record type '" + t + "'");
            }
        } catch (const std::exception& err) {
            // Torn or corrupt tail: recover to the last good record and
            // drop everything after it — loudly, because whatever those
            // lines described is about to be forgotten.
            tailDamaged_ = true;
            GGA_WARN("journal: ", journalPath(), " line ", lineNo,
                     " unreadable (", err.what(),
                     "); recovering to the last good record and "
                     "discarding the rest of the log");
            break;
        }
    }
    in.close();

    // Terminal jobs are compacted away right here (deferred compaction
    // for a server that crashed between finishing a job and finish()).
    MutexLock lock(mu_);
    for (const std::string& id : order) {
        Pending& p = pending.at(id);
        if (isTerminal(p.job.state))
            continue;
        p.recs.seq = ++nextSeq_;
        live_.emplace(id, std::move(p.recs));
        recovered_.push_back(std::move(p.job));
    }

    // Delete every part file the compacted log no longer references:
    // terminal jobs' parts, checksum-failed parts, and orphaned temp
    // files from a writer that crashed mid-rename.
    std::set<std::string> keep;
    for (const auto& [id, recs] : live_)
        for (const auto& [shard, partLine] : recs.partLines) {
            (void)partLine;
            keep.insert(partPath(id, shard));
        }
    for (const auto& entry : fs::directory_iterator(dir_ + "/parts", ec)) {
        const std::string p = entry.path().string();
        if (keep.count(p) == 0)
            fs::remove(entry.path(), ec);
    }

    rewriteLocked();
    if (!recovered_.empty())
        GGA_WARN("journal: recovered ", recovered_.size(),
                 " live job(s) from ", journalPath());
}

void
Journal::appendLocked(const std::string& line)
{
    faults::crashPoint("crash.journal.before-append");
    out_ << line << '\n';
    out_.flush();
    if (!out_) {
        // Durability is gone (disk full?): keep serving, but make sure
        // nobody mistakes this for a recoverable deployment.
        GGA_WARN("journal: append to ", journalPath(),
                 " FAILED; state written from here on will not survive "
                 "a restart");
        out_.clear();
    }
    ++records_;
    bytes_ += line.size() + 1;
    faults::crashPoint("crash.journal.after-append");
}

void
Journal::rewriteLocked()
{
    if (out_.is_open())
        out_.close();
    std::vector<std::pair<std::uint64_t, const JobRecords*>> jobs;
    jobs.reserve(live_.size());
    for (const auto& [id, recs] : live_) {
        (void)id;
        jobs.emplace_back(recs.seq, &recs);
    }
    std::sort(jobs.begin(), jobs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string text;
    std::uint64_t records = 0;
    for (const auto& [seq, recs] : jobs) {
        (void)seq;
        text += recs->admitLine + "\n";
        ++records;
        if (!recs->stateLine.empty()) {
            text += recs->stateLine + "\n";
            ++records;
        }
        for (const auto& [shard, partLine] : recs->partLines) {
            (void)shard;
            text += partLine + "\n";
            ++records;
        }
    }
    // Same atomic pattern as the graph snapshots: the journal under its
    // final name is always a complete, parseable log.
    const std::string path = journalPath();
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (f)
            f << text;
        f.flush();
        if (!f) {
            std::remove(tmp.c_str());
            throw ServeError("cannot write journal '" + tmp + "'");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw ServeError("cannot rename '" + tmp + "' to '" + path + "'");
    }
    out_.open(path, std::ios::app);
    if (!out_)
        throw ServeError("cannot reopen journal '" + path + "'");
    records_ = records;
    bytes_ = text.size();
}

void
Journal::admit(const std::string& job, const std::string& tenant,
               bool remote, std::size_t shards, const Manifest& manifest)
{
    Json rec = Json::object();
    rec.set("t", Json("admit"));
    rec.set("job", Json(job));
    rec.set("tenant", Json(tenant));
    rec.set("remote", Json(remote));
    rec.set("shards", Json(static_cast<std::uint64_t>(shards)));
    rec.set("manifest", manifest.toJson());
    const std::string line = rec.dump();
    MutexLock lock(mu_);
    JobRecords recs;
    recs.seq = ++nextSeq_;
    recs.admitLine = line;
    live_.emplace(job, std::move(recs));
    appendLocked(line);
}

void
Journal::state(const std::string& job, JobState s,
               const std::string& error)
{
    Json rec = Json::object();
    rec.set("t", Json("state"));
    rec.set("job", Json(job));
    rec.set("state", Json(jobStateName(s)));
    if (!error.empty())
        rec.set("error", Json(error));
    const std::string line = rec.dump();
    MutexLock lock(mu_);
    const auto it = live_.find(job);
    if (it == live_.end())
        return; // already compacted
    it->second.stateLine = line;
    appendLocked(line);
}

void
Journal::part(const std::string& job, std::size_t shard,
              const std::string& partJson)
{
    const std::uint64_t sum = fnv1a(partJson.data(), partJson.size());
    const std::string path = partPath(job, shard);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (f)
            f << partJson;
        f.flush();
        if (!f) {
            std::remove(tmp.c_str());
            GGA_WARN("journal: cannot persist part shard ", shard, " of ",
                     job, " to '", tmp, "'; it would re-run on restart");
            return;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        GGA_WARN("journal: cannot rename part '", tmp, "'");
        return;
    }
    // The file is durable before the record that points at it exists; a
    // crash in between leaves an orphan the next replay deletes.
    faults::crashPoint("crash.journal.part-file");

    Json rec = Json::object();
    rec.set("t", Json("part"));
    rec.set("job", Json(job));
    rec.set("shard", Json(static_cast<std::uint64_t>(shard)));
    rec.set("file", Json("parts/" + job + ".s" + std::to_string(shard) +
                         ".json"));
    rec.set("checksum", Json(sum));
    rec.set("bytes", Json(static_cast<std::uint64_t>(partJson.size())));
    const std::string line = rec.dump();
    MutexLock lock(mu_);
    const auto it = live_.find(job);
    if (it == live_.end()) {
        // The job finished (and compacted) while this part was being
        // written — a final-part race. The record must not resurrect it.
        std::remove(path.c_str());
        return;
    }
    it->second.partLines[shard] = line;
    appendLocked(line);
}

void
Journal::finish(const std::string& job)
{
    std::vector<std::string> doomed;
    {
        MutexLock lock(mu_);
        const auto it = live_.find(job);
        if (it == live_.end())
            return;
        for (const auto& [shard, partLine] : it->second.partLines) {
            (void)partLine;
            doomed.push_back(partPath(job, shard));
        }
        live_.erase(it);
        rewriteLocked();
        ++compactions_;
    }
    for (const std::string& p : doomed)
        std::remove(p.c_str());
}

void
Journal::sync()
{
    MutexLock lock(mu_);
    if (out_.is_open())
        out_.flush();
}

Json
Journal::statsJson() const
{
    MutexLock lock(mu_);
    Json j = Json::object();
    j.set("records", Json(records_));
    j.set("bytes", Json(bytes_));
    j.set("live_jobs", Json(static_cast<std::uint64_t>(live_.size())));
    j.set("compactions_total", Json(compactions_));
    j.set("recovered_jobs",
          Json(static_cast<std::uint64_t>(recovered_.size())));
    j.set("dropped_parts", Json(droppedParts_));
    j.set("tail_damaged", Json(tailDamaged_));
    return j;
}

} // namespace gga
