/**
 * @file
 * Journal: the resident service's write-ahead log — what makes a
 * gga_serve restart a non-event instead of a data loss.
 *
 * Layout under --state-dir:
 *
 *   journal.jsonl        append-only, one JSON record per line:
 *     {"t":"admit","job","tenant","remote","shards","manifest":{...}}
 *     {"t":"state","job","state","error"}
 *     {"t":"part","job","shard","file","checksum","bytes"}
 *   parts/<job>.s<shard>.json   one verified shard ResultSet each,
 *                               written atomically (temp + rename, the
 *                               graph-snapshot pattern) BEFORE its
 *                               journal record — a record never points
 *                               at a file that might not exist.
 *
 * Durability contract: a record is flushed (not fsynced) before the
 * action it describes is acknowledged, so after a process crash the
 * journal describes a prefix of what actually happened; a power loss may
 * lose the page cache's tail. Replay (the constructor) tolerates a torn
 * tail — the first unparseable line is warned about and everything from
 * it on is dropped, recovering to the last good record — and a part that
 * fails its checksum, or names a shard its job does not have, is dropped
 * so its shard simply re-runs.
 *
 * Writers: the Service appends admissions, the JobTable every state
 * transition, the Orchestrator every verified part. When a job reaches a
 * terminal state the JobTable calls finish(), which drops the job's
 * records, deletes its part files, and rewrites journal.jsonl (temp +
 * rename again); terminal jobs found at replay are compacted the same
 * way, so the log stays proportional to live work, not service uptime.
 *
 * Thread-safe; append order under mu_ is the replay order.
 */

#ifndef GGA_SERVE_JOURNAL_HPP
#define GGA_SERVE_JOURNAL_HPP

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "eval/manifest.hpp"
#include "serve/job_table.hpp"
#include "support/thread_annotations.hpp"

namespace gga {

class Journal
{
  public:
    /**
     * Open (creating @p stateDir and its parts/ subdirectory when
     * absent), replay the existing log, compact terminal jobs away, and
     * leave the log open for appending. Throws ServeError when the
     * directory cannot be created or the compacted log cannot be
     * written; a damaged log never throws — it recovers.
     */
    explicit Journal(std::string stateDir);

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    /**
     * Jobs that were live at the last crash, in admission order, each
     * with the rows of its recovered parts.
     */
    const std::vector<JobTable::JobRestore>& recovered() const
    {
        return recovered_;
    }

    /** Whether replay hit (and dropped) a torn or corrupt tail. */
    bool tailWasDamaged() const { return tailDamaged_; }

    /** Record an admission; flushed before returning. */
    void admit(const std::string& job, const std::string& tenant,
               bool remote, std::size_t shards, const Manifest& manifest);

    /** Record a state transition; flushed before returning. */
    void state(const std::string& job, JobState s,
               const std::string& error);

    /**
     * Persist a verified shard part (@p partJson is the part's compact
     * ResultSet JSON): part file first, then the checksummed record.
     */
    void part(const std::string& job, std::size_t shard,
              const std::string& partJson);

    /** Terminal job: drop its records, delete its parts, compact. */
    void finish(const std::string& job);

    /** Flush the append stream (drain path). */
    void sync();

    /** Bytes/records/compaction counters for /stats. */
    Json statsJson() const;

  private:
    /** The retained raw lines of one live job, for compaction. */
    struct JobRecords
    {
        std::uint64_t seq = 0; ///< admission order, for stable rewrites
        std::string admitLine;
        std::string stateLine; ///< latest only; older ones are dead
        std::map<std::size_t, std::string> partLines;
    };

    void appendLocked(const std::string& line) GGA_REQUIRES(mu_);
    void rewriteLocked() GGA_REQUIRES(mu_);
    std::string partPath(const std::string& job, std::size_t shard) const;
    std::string journalPath() const;

    const std::string dir_;
    mutable Mutex mu_;
    std::ofstream out_ GGA_GUARDED_BY(mu_);
    std::map<std::string, JobRecords> live_ GGA_GUARDED_BY(mu_);
    std::uint64_t nextSeq_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t records_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t bytes_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t compactions_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t droppedParts_ = 0; ///< ctor-only write
    bool tailDamaged_ = false;       ///< ctor-only write
    std::vector<JobTable::JobRestore> recovered_; ///< ctor-only write
};

} // namespace gga

#endif // GGA_SERVE_JOURNAL_HPP
