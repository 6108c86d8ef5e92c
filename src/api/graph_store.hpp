/**
 * @file
 * GraphStore: a thread-safe, process-wide cache of built input graphs —
 * synthetic presets keyed on (preset, scale) and MatrixMarket files keyed
 * on path — with explicit eviction, an optional LRU byte budget, and a
 * transparent on-disk snapshot cache.
 *
 * Concurrent callers (e.g. the parallel design-space sweep) may request
 * graphs from any thread; the first requester builds, everyone else
 * blocks on the same build instead of duplicating it. Entries are handed
 * out as shared_ptr so eviction never invalidates a graph an in-flight
 * run is still using. Every entry — full-scale presets included — is
 * store-owned, so the budget really bounds paper-sized workers.
 *
 * The byte budget (setBudgetBytes / SessionOptions::graphBudgetBytes)
 * exists for sharded evaluation: N worker shards on one host must not
 * each hold every input graph. When the cached total exceeds the budget,
 * least-recently-used completed entries are dropped from the cache (their
 * outstanding handles stay valid; a later get() rebuilds).
 *
 * The snapshot cache (setCacheDir / SessionOptions::graphCacheDir /
 * GGA_GRAPH_CACHE) short-circuits preset synthesis entirely: get() first
 * tries the content-addressed .csrbin file for the requested (preset,
 * scale) — see graph/snapshot.hpp — and only synthesizes (then saves,
 * best-effort) on a miss. A corrupt or stale snapshot is rejected with a
 * loud warning and falls back to synthesis, so the cache can never
 * change results, only cold-start latency.
 */

#ifndef GGA_API_GRAPH_STORE_HPP
#define GGA_API_GRAPH_STORE_HPP

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/presets.hpp"
#include "support/thread_annotations.hpp"

namespace gga {

class GraphStore
{
  public:
    using GraphPtr = std::shared_ptr<const CsrGraph>;

    /** Telemetry row for one cached entry. */
    struct EntryStats
    {
        std::string name;  ///< preset name ("RAJ") or file path
        double scale;      ///< 1.0 for file entries
        std::size_t bytes; ///< resident CSR bytes; 0 while in flight
    };

    /**
     * Lifetime counters plus a snapshot of the resident state. hits are
     * get()/getFile() calls served from the cache (including joins on an
     * in-flight build); misses are calls that started a build; evictions
     * count completed entries dropped for any reason — budget pressure,
     * explicit evict/evictFile, or clear(). Monotonic for the process.
     */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;       ///< cached or in-flight right now
        std::size_t residentBytes = 0; ///< == totalBytes()
        std::size_t budgetBytes = 0;   ///< 0 = unlimited
    };

    /** The process-wide store. */
    static GraphStore& instance();

    GraphStore() = default;
    GraphStore(const GraphStore&) = delete;
    GraphStore& operator=(const GraphStore&) = delete;

    /**
     * The preset graph at @p scale (1.0 = the paper-sized input), built
     * on first request and cached. Thread-safe; concurrent requests for
     * the same key share one deterministic build, and a failed build is
     * dropped from the cache so a later request retries. When a cache
     * directory is set, the build first tries the graph's .csrbin
     * snapshot and saves one after synthesizing. All entries, full-scale
     * included, are store-owned and budget-governed.
     */
    GraphPtr get(GraphPreset p, double scale = 1.0);

    /**
     * The MatrixMarket graph at @p path, loaded (with the library's
     * deterministic weights attached) on first request and cached by
     * path. Thread-safe with the same shared-build semantics as preset
     * entries. A malformed or missing file is fatal, matching
     * readMatrixMarketFile.
     */
    GraphPtr getFile(const std::string& path);

    /**
     * Drop the cached entry for (p, scale). Returns whether an entry was
     * present. Outstanding GraphPtr handles stay valid; the next get()
     * rebuilds (or reloads from the snapshot cache).
     */
    bool evict(GraphPreset p, double scale = 1.0);

    /** Drop the cached entry for @p path; same semantics as evict. */
    bool evictFile(const std::string& path);

    /** Drop every cached entry. */
    void clear();

    /** Number of cached (or in-flight) entries. */
    std::size_t size() const;

    /**
     * LRU capacity policy: keep the sum of cached graph bytes at or under
     * @p bytes by dropping least-recently-used completed entries
     * (in-flight builds are never dropped). 0 = unlimited (the default).
     * Applies immediately and to every later insertion. Every completed
     * entry — scaled preset, full-scale preset, or file graph — is
     * store-owned and charged against the budget; a budget smaller than
     * one graph still keeps the most recent entry resident.
     */
    void setBudgetBytes(std::size_t bytes);

    /** The current byte budget (0 = unlimited). */
    std::size_t budgetBytes() const;

    /**
     * Directory of .csrbin snapshots consulted (and written, best
     * effort) by preset builds. Empty (the default) disables the disk
     * cache. The directory must exist; files are content-addressed by
     * specContentHash, so snapshots from older generator versions are
     * ignored rather than wrongly loaded. Sharded workers pointed at one
     * shared, prebuilt directory (gga_graphs) skip synthesis entirely.
     */
    void setCacheDir(std::string dir);

    /** The current snapshot directory ("" = disabled). */
    std::string cacheDir() const;

    /**
     * Worker threads for graph builds (GraphBuilder::threads). 0 = the
     * defaultBuildThreads() environment default. Sessions set this to
     * their executor width; builds are bit-identical at any value.
     */
    void setBuildThreads(unsigned threads);

    /** Total bytes of completed cached entries. */
    std::size_t totalBytes() const;

    /** Per-entry telemetry, most recently used first. */
    std::vector<EntryStats> stats() const;

    /** Aggregate hit/miss/eviction counters and resident totals. */
    Counters counters() const;

    /**
     * The canonical cache key for @p scale: the value rounded to 1e-6.
     * Raw doubles make terrible keys — 0.3 from the environment and a
     * computed 0.1 + 0.2 differ in the last bits and would cache two
     * copies of the same graph. Builds use the quantized scale too, so
     * equal keys always mean bit-identical graphs.
     */
    static std::int64_t quantizeScale(double scale);

  private:
    /**
     * Preset entries use (preset, quantizeScale(scale)) with an empty
     * path; file entries use (Amz, full-scale) with the path set — the
     * path being nonempty is what distinguishes the two kinds, so the
     * preset fields of a file key are just tie-breakers.
     */
    struct Key
    {
        GraphPreset preset;
        std::int64_t scaleUnits; ///< micro-units, 1000000 = full size
        std::string path;        ///< empty for preset entries

        auto
        operator<=>(const Key& o) const
        {
            if (auto c = path <=> o.path; c != 0)
                return c;
            if (auto c = preset <=> o.preset; c != 0)
                return c;
            return scaleUnits <=> o.scaleUnits;
        }
    };

    struct Slot
    {
        std::shared_future<GraphPtr> future;
        std::size_t bytes = 0;    ///< known once the build completes
        std::uint64_t lastUse = 0; ///< LRU tick
        /**
         * Identity of the build that owns this slot. A builder only
         * accounts/erases a slot whose id it inserted — an evict/clear
         * racing the build may have replaced the slot with a new build's,
         * and completing against that one would double-count its bytes.
         */
        std::uint64_t id = 0;
        bool ready = false;
    };

    GraphPtr getOrBuild(const Key& key);
    /** Synthesize or snapshot-load the preset graph for @p key. */
    GraphPtr buildPreset(const Key& key, const std::string& cache_dir,
                         unsigned threads) const;
    /** Drop LRU completed entries until within budget. */
    void enforceBudgetLocked() GGA_REQUIRES(mu_);
    /** Drop the slot for @p key (if any), keeping byte/eviction
     *  accounting intact; returns whether an entry was present. */
    bool evictSlotLocked(const Key& key) GGA_REQUIRES(mu_);

    mutable Mutex mu_;
    std::map<Key, Slot> cache_ GGA_GUARDED_BY(mu_);
    std::uint64_t hits_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t misses_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t evictions_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t useTick_ GGA_GUARDED_BY(mu_) = 0;
    std::size_t budgetBytes_ GGA_GUARDED_BY(mu_) = 0;
    std::size_t totalBytes_ GGA_GUARDED_BY(mu_) = 0;
    std::string cacheDir_ GGA_GUARDED_BY(mu_);
    unsigned buildThreads_ GGA_GUARDED_BY(mu_) = 0;
};

} // namespace gga

#endif // GGA_API_GRAPH_STORE_HPP
