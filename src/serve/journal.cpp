#include "serve/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "support/faults.hpp"
#include "serve/http.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace gga {

std::string
Journal::jobPath(const std::string& job) const
{
    return dir_ + "/jobs/" + job + ".jsonl";
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
    for (const char* sub : {"/jobs", "/parts"})
        if (!ec)
            fs::create_directories(dir_ + sub, ec);
    if (ec)
        throw ServeError("state-dir '" + dir_ + "': " + ec.message());
    if (fs::exists(dir_ + "/journal.jsonl", ec))
        GGA_WARN("journal: ignoring ", dir_,
                 "/journal.jsonl, the log of an older build; the jobs it "
                 "holds are not recovered");

    // Replay in admission order: the number in "job-<n>".
    std::vector<std::pair<std::uint64_t, std::string>> jobs;
    for (const auto& entry : fs::directory_iterator(dir_ + "/jobs", ec)) {
        const std::string job = entry.path().stem().string();
        const std::optional<std::uint64_t> n = jobNumber(job);
        if (entry.path().extension() == ".jsonl" && n)
            jobs.emplace_back(*n, job);
    }
    std::sort(jobs.begin(), jobs.end());
    MutexLock lock(mu_);
    std::set<std::string> keep;
    for (const auto& [n, job] : jobs) {
        (void)n;
        replayLocked(job, keep);
    }

    // Delete every file no live job needs: the parts of jobs that
    // finished between deleting their file and their parts, parts that
    // failed their checks, and stray temp files from a writer that
    // crashed mid-rename.
    for (const char* sub : {"/jobs", "/parts"})
        for (const auto& entry : fs::directory_iterator(dir_ + sub, ec))
            if (keep.count(entry.path().string()) == 0)
                fs::remove(entry.path(), ec);
    if (!recovered_.empty())
        GGA_WARN("journal: recovered ", recovered_.size(),
                 " live job(s) from ", dir_, "/jobs");
}

void
Journal::replayLocked(const std::string& job, std::set<std::string>& keep)
{
    const std::string path = jobPath(job);
    JobTable::JobRestore rj;
    LiveJob live;
    std::size_t good = 0; ///< bytes up to the end of the last good record
    try {
        const std::string text = readTextFile(path);
        if (text.empty())
            throw JsonError("the file is empty");
        while (good < text.size()) {
            const std::size_t end = text.find('\n', good);
            if (end == std::string::npos)
                throw JsonError("the last line has no end");
            const Json rec =
                Json::parse(std::string_view(text).substr(good, end - good));
            const std::string t = rec.at("t").asString();
            const std::string owner = rec.at("job").asString();
            if (owner != job)
                throw JsonError("a record of '" + owner + "'");
            if (live.records == 0) {
                if (t != "admit")
                    throw JsonError("a '" + t + "' record comes first");
                rj.id = job;
                rj.tenant = rec.at("tenant").asString();
                rj.remote = rec.at("remote").asBool();
                rj.shards =
                    static_cast<std::size_t>(rec.at("shards").asU64());
                rj.manifest = Manifest::fromJson(rec.at("manifest"));
                // Only what Service::submitJob acknowledges.
                if (rj.manifest.empty() ||
                    (rj.remote ? rj.shards < 1 ||
                                     rj.shards > rj.manifest.size()
                               : rj.shards != 0))
                    throw JsonError(
                        std::string(rj.remote ? "a remote" : "a local") +
                        " job of " + std::to_string(rj.manifest.size()) +
                        " unit(s) in " + std::to_string(rj.shards) +
                        " shard(s)");
            } else if (t == "part") {
                const std::size_t shard =
                    static_cast<std::size_t>(rec.at("shard").asU64());
                const std::uint64_t sum = rec.at("checksum").asU64();
                // A part that fails its checksum (or won't parse, or is
                // not one of the job's open shards) is not tail damage:
                // drop just this shard and let it re-run.
                try {
                    if (shard >= rj.shards || rj.doneShards.count(shard))
                        throw EvalError("not an open shard of a " +
                                        std::to_string(rj.shards) +
                                        "-shard job");
                    const std::string part =
                        readTextFile(partPath(job, shard));
                    if (fnv1a(part.data(), part.size()) != sum)
                        throw EvalError("part checksum mismatch");
                    const ResultSet rows =
                        ResultSet::fromJson(Json::parse(part));
                    rj.rows.insert(rj.rows.end(), rows.results().begin(),
                                   rows.results().end());
                    rj.doneShards.insert(shard);
                } catch (const std::exception& err) {
                    ++droppedParts_;
                    GGA_WARN("journal: dropping part shard ", shard,
                             " of ", job, " (", err.what(),
                             "); the shard will re-run");
                }
            } else {
                throw JsonError("unexpected record type '" + t + "'");
            }
            ++live.records;
            good = end + 1;
        }
    } catch (const std::exception& err) {
        tailDamaged_ = true;
        std::error_code ec;
        if (live.records == 0) {
            GGA_WARN("journal: ", path, " does not start with an admit "
                     "record a server acknowledged (", err.what(),
                     "); deleting it");
            std::filesystem::remove(path, ec);
            return;
        }
        // Torn or corrupt tail of this job only: recover to its last
        // good record, loudly, because whatever the rest described is
        // about to be forgotten.
        GGA_WARN("journal: ", path, " line ", live.records + 1,
                 " unreadable (", err.what(),
                 "); truncating the file after its last good record");
        std::filesystem::resize_file(path, good, ec);
    }
    live.shards = rj.shards;
    live.bytes = good;
    live_.emplace(job, live);
    keep.insert(path);
    for (const std::size_t shard : rj.doneShards)
        keep.insert(partPath(job, shard));
    recovered_.push_back(std::move(rj));
}

void
Journal::appendLocked(const std::string& job, const std::string& line)
{
    faults::crashPoint("crash.journal.before-append");
    {
        std::ofstream out(jobPath(job), std::ios::app);
        out << line << '\n';
        out.flush();
        if (!out)
            // Durability is gone (disk full?): keep serving, but make
            // sure nobody mistakes this for a recoverable deployment.
            GGA_WARN("journal: append to ", jobPath(job),
                     " FAILED; this job will not survive a restart");
    }
    LiveJob& live = live_[job];
    ++live.records;
    live.bytes += line.size() + 1;
    faults::crashPoint("crash.journal.after-append");
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
    live_[job].shards = shards;
    appendLocked(job, line);
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
    if (live_.count(job) == 0) {
        // The job finished while this part was being written — a
        // final-part race. The record must not resurrect it.
        std::remove(path.c_str());
        return;
    }
    appendLocked(job, line);
}

void
Journal::finish(const std::string& job)
{
    MutexLock lock(mu_);
    const auto it = live_.find(job);
    if (it == live_.end())
        return;
    // The job file goes first: a crash before its parts are gone leaves
    // orphans the next replay deletes, never a live job without parts.
    if (std::remove(jobPath(job).c_str()) != 0)
        GGA_WARN("journal: cannot delete ", jobPath(job), "; ", job,
                 " will come back at the next restart");
    for (std::size_t shard = 0; shard < it->second.shards; ++shard)
        std::remove(partPath(job, shard).c_str());
    live_.erase(it);
    ++compactions_;
}

Json
Journal::statsJson() const
{
    MutexLock lock(mu_);
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    for (const auto& [job, live] : live_) {
        (void)job;
        records += live.records;
        bytes += live.bytes;
    }
    Json j = Json::object();
    j.set("records", Json(records));
    j.set("bytes", Json(bytes));
    j.set("live_jobs", Json(static_cast<std::uint64_t>(live_.size())));
    j.set("compactions_total", Json(compactions_));
    j.set("recovered_jobs",
          Json(static_cast<std::uint64_t>(recovered_.size())));
    j.set("dropped_parts", Json(droppedParts_));
    j.set("tail_damaged", Json(tailDamaged_));
    return j;
}

} // namespace gga
