/**
 * @file
 * GraphStore: a thread-safe, process-wide cache of built input graphs —
 * synthetic presets keyed on (preset, scale) and MatrixMarket files keyed
 * on path — bounded by an optional LRU byte budget, over a transparent
 * on-disk snapshot cache. It is also the one owner of a preset input's
 * identity: the 1e-6 scale grid (kScaleUnits, canonicalScale) and the
 * snapshot file name (snapshotPath) that gga_graphs, the figures and
 * every worker share.
 *
 * Concurrent callers (e.g. the parallel design-space sweep) may request
 * graphs from any thread; the first requester builds, everyone else
 * blocks on the same build instead of duplicating it. Entries are handed
 * out as shared_ptr so dropping one never invalidates a graph an
 * in-flight run is still using. Every entry — full-scale presets
 * included — is store-owned, so the budget really bounds paper-sized
 * workers.
 *
 * The byte budget (setBudgetBytes; gga_worker --graph-budget-mb)
 * exists for sharded evaluation: N worker shards on one host must not
 * each hold every input graph. When the cached total exceeds the budget,
 * least-recently-used completed entries are dropped from the cache (their
 * outstanding handles stay valid; a later get() rebuilds). The budget and
 * clear() drop completed entries only: a running build keeps its slot.
 *
 * The snapshot cache (setCacheDir; --graph-cache; GGA_GRAPH_CACHE, the
 * process-wide store's initial directory) short-circuits preset
 * synthesis entirely: get() first tries the content-addressed .csrbin
 * file snapshotPath names for the requested (preset, scale) — see
 * graph/snapshot.hpp — and only synthesizes (then saves, best-effort) on
 * a miss. A corrupt or stale snapshot is rejected with a loud warning and
 * falls back to synthesis, so the cache can never change results, only
 * cold-start latency.
 */

#ifndef GGA_API_GRAPH_STORE_HPP
#define GGA_API_GRAPH_STORE_HPP

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "graph/csr.hpp"
#include "graph/presets.hpp"
#include "support/thread_annotations.hpp"

namespace gga {

class GraphStore
{
  public:
    using GraphPtr = std::shared_ptr<const CsrGraph>;

    /** Scale 1.0 on the store's grid: keys and file names count 1e-6. */
    static constexpr std::int64_t kScaleUnits = 1000000;

    /**
     * Lifetime counters plus a snapshot of the resident state. hits are
     * get()/getFile() calls served from the cache (including joins on an
     * in-flight build); misses are calls that started a build; evictions
     * count completed entries dropped by the budget or by clear().
     * Monotonic for the process.
     */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;       ///< cached or in-flight right now
        std::size_t residentBytes = 0; ///< bytes of completed entries
        std::size_t budgetBytes = 0;   ///< 0 = unlimited
    };

    /**
     * The process-wide store. Its snapshot directory starts as the
     * GGA_GRAPH_CACHE environment value, read once (unset = none).
     */
    static GraphStore& instance();

    GraphStore() = default;
    GraphStore(const GraphStore&) = delete;
    GraphStore& operator=(const GraphStore&) = delete;

    /**
     * The preset graph at canonicalScale(@p scale) (1.0 = the paper-sized
     * input), built on first request and cached. Thread-safe; concurrent
     * requests for the same key share one deterministic build, and a
     * failed build is dropped from the cache so a later request retries.
     * When a cache directory is set, the build first tries the graph's
     * snapshotPath file and saves one after synthesizing. All entries,
     * full-scale included, are store-owned and budget-governed.
     */
    GraphPtr get(GraphPreset p, double scale = 1.0);

    /**
     * The MatrixMarket graph at @p path, loaded (with the library's
     * deterministic weights attached) on first request and cached by
     * path. Thread-safe with the same shared-build semantics as preset
     * entries. A malformed or missing file throws GraphError (from
     * readMatrixMarketFile) to the caller and every waiter, and leaves
     * nothing cached, so a later request retries.
     */
    GraphPtr getFile(const std::string& path);

    /**
     * Drop every completed entry; outstanding handles stay valid. A
     * running build stays, and its graph lands in the store when done.
     */
    void clear();

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

    /**
     * Directory of .csrbin snapshots consulted (and written, best
     * effort) by preset builds. Empty (the default) disables the disk
     * cache. The directory must exist; files are content-addressed by
     * specContentHash, so snapshots from older generator versions are
     * ignored rather than wrongly loaded. Sharded workers pointed at one
     * shared, prebuilt directory (gga_graphs) skip synthesis entirely.
     */
    void setCacheDir(std::string dir);

    /**
     * Worker threads for graph builds (GraphBuilder::threads). 0 = the
     * defaultThreads() environment default. Sessions set this to
     * their executor width; builds are bit-identical at any value.
     */
    void setBuildThreads(unsigned threads);

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

    /** The scale get() builds at: quantizeScale(@p scale) as a double. */
    static double canonicalScale(double scale);

    /**
     * Why preset @p p cannot be built at @p scale in (0, 1] — the scale
     * quantizes to zero, or the scaled spec fails synthesisError — or
     * nullopt. Costs no synthesis: the admission check that WorkUnit
     * and Session::validate share.
     */
    static std::optional<std::string> presetError(GraphPreset p,
                                                  double scale);

    /**
     * The .csrbin file under @p dir that holds preset @p p at @p scale:
     * the one get() reads and writes, and the one gga_graphs prebuilds.
     */
    static std::string snapshotPath(const std::string& dir, GraphPreset p,
                                    double scale);

  private:
    /** (preset, quantizeScale) for a preset entry; the path for a file. */
    using Key =
        std::variant<std::pair<GraphPreset, std::int64_t>, std::string>;
    /** Builds a missing entry from the store's cache dir and threads. */
    using Build =
        std::function<GraphPtr(const std::string& cache_dir, unsigned)>;

    struct Slot
    {
        std::shared_future<GraphPtr> future;
        std::size_t bytes = 0;     ///< 0 while the build runs
        std::uint64_t lastUse = 0; ///< LRU tick
    };

    GraphPtr getOrBuild(const Key& key, const Build& build);
    /** Drop LRU completed entries until within budget. */
    void enforceBudgetLocked() GGA_REQUIRES(mu_);

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
