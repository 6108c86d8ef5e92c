/**
 * @file
 * Journal: the resident service's write-ahead log — what makes a
 * gga_serve restart a non-event instead of a data loss.
 *
 * Layout under --state-dir, one append-only file per live job:
 *
 *   jobs/<job>.jsonl     one JSON record per line:
 *     {"t":"admit","job","tenant","remote","shards","manifest":{...}}
 *     {"t":"part","job","shard","file","checksum","bytes"}
 *                        the admit record first, then one part record
 *                        per verified remote part.
 *   parts/<job>.s<shard>.json   one verified shard ResultSet each,
 *                               written atomically (temp + rename, the
 *                               graph-snapshot pattern) BEFORE its
 *                               record — a record never points at a
 *                               file that might not exist.
 *
 * A job is live exactly while its file exists: finish() deletes the
 * file, then the job's part files, so no state record is needed and no
 * other job's file is ever rewritten. A journal.jsonl left by an older
 * build is not read.
 *
 * Durability contract: a record is flushed (not fsynced) before the
 * action it describes is acknowledged, so after a process crash each
 * file describes a prefix of what happened to its job; a power loss may
 * lose the page cache's tail. Replay (the constructor) reads each file
 * on its own. A file whose first line is not an admit record of its job
 * that a server could have acknowledged — at least one unit, and shards
 * in [1, units] for a remote job, 0 for a local one — is deleted. A
 * later unreadable line is a torn tail of that job only: it is warned
 * about and the file is truncated after its last good record. A part
 * that fails its checksum, or names a shard its job does not have, is
 * dropped so its shard simply re-runs.
 *
 * Writers: the JobTable writes a job's admit record when it creates the
 * job and calls finish() on its terminal transition; the Orchestrator
 * writes every verified part. Thread-safe.
 */

#ifndef GGA_SERVE_JOURNAL_HPP
#define GGA_SERVE_JOURNAL_HPP

#include <cstdint>
#include <map>
#include <set>
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
     * Open (creating @p stateDir and its jobs/ and parts/ subdirectories
     * when absent) and replay every job file, then delete every file no
     * live job needs. Throws ServeError when the directories cannot be
     * created; a damaged file never throws — it recovers.
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

    /** Whether replay hit (and dropped) a torn or corrupt record. */
    bool tailWasDamaged() const { return tailDamaged_; }

    /** Create the job's file with its admit record; flushed. */
    void admit(const std::string& job, const std::string& tenant,
               bool remote, std::size_t shards, const Manifest& manifest);

    /**
     * Persist a verified shard part (@p partJson is the part's compact
     * ResultSet JSON): part file first, then the checksummed record. A
     * job that is not live gets neither.
     */
    void part(const std::string& job, std::size_t shard,
              const std::string& partJson);

    /** Terminal job: delete its file, then its part files. */
    void finish(const std::string& job);

    /** Live-file, finish and replay counters for /stats. */
    Json statsJson() const;

  private:
    /** What the journal keeps of one live job's file. */
    struct LiveJob
    {
        std::size_t shards = 0; ///< part files finish() may delete
        std::uint64_t records = 0;
        std::uint64_t bytes = 0;
    };

    /** Replay one job file; adds the files it still needs to @p keep. */
    void replayLocked(const std::string& job, std::set<std::string>& keep)
        GGA_REQUIRES(mu_);
    void appendLocked(const std::string& job, const std::string& line)
        GGA_REQUIRES(mu_);
    std::string jobPath(const std::string& job) const;
    std::string partPath(const std::string& job, std::size_t shard) const;

    const std::string dir_;
    mutable Mutex mu_;
    std::map<std::string, LiveJob> live_ GGA_GUARDED_BY(mu_);
    /** Finished jobs (the /stats key is compactions_total). */
    std::uint64_t compactions_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t droppedParts_ = 0; ///< ctor-only write
    bool tailDamaged_ = false;       ///< ctor-only write
    std::vector<JobTable::JobRestore> recovered_; ///< ctor-only write
};

} // namespace gga

#endif // GGA_SERVE_JOURNAL_HPP
