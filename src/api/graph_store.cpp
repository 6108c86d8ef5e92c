#include "api/graph_store.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "graph/mtx_io.hpp"
#include "graph/snapshot.hpp"
#include "support/log.hpp"

namespace gga {

constexpr std::int64_t kScaleUnits = 1000000; // 1.0 in micro-units

GraphStore&
GraphStore::instance()
{
    static GraphStore store;
    return store;
}

std::int64_t
GraphStore::quantizeScale(double scale)
{
    return std::llround(scale * static_cast<double>(kScaleUnits));
}

std::optional<std::string>
GraphStore::presetError(GraphPreset p, double scale)
{
    const std::int64_t units = quantizeScale(scale);
    if (units <= 0)
        return "scale rounds to zero; the smallest is 5e-7";
    // The spec get() would build: the quantized scale's.
    const std::optional<std::string> why = synthesisError(presetSpecScaled(
        p, static_cast<double>(units) / static_cast<double>(kScaleUnits)));
    if (!why)
        return std::nullopt;
    return "scale is too small to synthesize " + presetName(p) + ": " + *why;
}

GraphStore::GraphPtr
GraphStore::get(GraphPreset p, double scale)
{
    GGA_ASSERT(scale > 0.0 && scale <= 1.0,
               "GraphStore scale must be in (0, 1], got ", scale);
    const Key key{p, quantizeScale(scale), {}};
    GGA_ASSERT(key.scaleUnits > 0, "scale ", scale, " quantizes to zero; "
               "the minimum representable scale is 5e-7");
    return getOrBuild(key);
}

GraphStore::GraphPtr
GraphStore::getFile(const std::string& path)
{
    GGA_ASSERT(!path.empty(), "GraphStore file path must not be empty");
    return getOrBuild(Key{GraphPreset::Amz, kScaleUnits, path});
}

GraphStore::GraphPtr
GraphStore::buildPreset(const Key& key, const std::string& cache_dir,
                        unsigned threads) const
{
    // Build at the quantized scale, not the raw argument, so every
    // double mapping to this key yields the same graph.
    const double scale = static_cast<double>(key.scaleUnits) /
                         static_cast<double>(kScaleUnits);
    const GenSpec spec = presetSpecScaled(key.preset, scale);
    const std::string snap_path =
        cache_dir.empty()
            ? std::string{}
            : cache_dir + "/" +
                  csrSnapshotFileName(presetName(key.preset),
                                      key.scaleUnits,
                                      specContentHash(spec));
    if (!snap_path.empty() && std::ifstream(snap_path).good()) {
        try {
            return std::make_shared<const CsrGraph>(
                loadCsrSnapshot(snap_path));
        } catch (const SnapshotError& err) {
            // The file exists but won't load — damaged or torn. Say so
            // loudly, fall back to synthesis, and overwrite it with a
            // good copy below; the returned graph is the deterministic
            // synthesis result either way. (A plain miss skips this
            // branch silently: that's just a cold cache.)
            GGA_WARN("graph snapshot rejected, resynthesizing: ",
                     err.what());
        }
    }
    auto built =
        std::make_shared<const CsrGraph>(generateGraph(spec, threads));
    if (!snap_path.empty()) {
        try {
            saveCsrSnapshot(snap_path, *built);
        } catch (const SnapshotError& err) {
            // Best effort: a read-only or full cache directory must not
            // fail the run that synthesized the graph successfully.
            GGA_WARN("cannot write graph snapshot: ", err.what());
        }
    }
    return built;
}

GraphStore::GraphPtr
GraphStore::getOrBuild(const Key& key)
{
    std::promise<GraphPtr> promise;
    std::shared_future<GraphPtr> future;
    bool builder = false;
    std::uint64_t build_id = 0;
    std::string cache_dir;
    unsigned build_threads = 0;
    {
        MutexLock lock(mu_);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            builder = true;
            ++misses_;
            build_id = ++useTick_;
            future = promise.get_future().share();
            cache_.emplace(key, Slot{future, 0, build_id, build_id, false});
            // Snapshot of the knobs this build runs under: the build
            // happens outside the lock, and a concurrent setCacheDir /
            // setBuildThreads must not race it.
            cache_dir = cacheDir_;
            build_threads = buildThreads_;
        } else {
            ++hits_;
            it->second.lastUse = ++useTick_;
            future = it->second.future;
        }
    }
    if (builder) {
        // Build outside the lock so distinct keys build concurrently;
        // waiters for this key block on the shared future instead.
        try {
            GraphPtr built;
            if (!key.path.empty()) {
                // Weights attached so the file path serves weighted apps
                // (SSSP) exactly like the presets do.
                built = std::make_shared<const CsrGraph>(
                    readMatrixMarketFile(key.path, /*with_weights=*/true));
            } else {
                built = buildPreset(key, cache_dir, build_threads);
            }
            {
                MutexLock lock(mu_);
                auto it = cache_.find(key);
                // Account only the slot this build inserted: an evict()
                // racing the build may have dropped it (and a later get()
                // re-inserted a different build's slot).
                if (it != cache_.end() && it->second.id == build_id) {
                    it->second.bytes = built->memoryBytes();
                    it->second.ready = true;
                    totalBytes_ += it->second.bytes;
                    enforceBudgetLocked();
                }
            }
            promise.set_value(std::move(built));
        } catch (...) {
            // Don't poison the cache slot: drop it so the next get()
            // retries, and propagate the failure to current waiters.
            {
                MutexLock lock(mu_);
                auto it = cache_.find(key);
                if (it != cache_.end() && it->second.id == build_id)
                    cache_.erase(it);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    return future.get();
}

void
GraphStore::enforceBudgetLocked()
{
    if (budgetBytes_ == 0)
        return;
    while (totalBytes_ > budgetBytes_) {
        // Find the least-recently-used *completed* entry. In-flight
        // builds are skipped (their waiters hold the shared future), and
        // so is the sole remaining candidate when everything else is
        // gone — a budget smaller than one graph still keeps the current
        // one.
        auto victim = cache_.end();
        std::size_t candidates = 0;
        for (auto it = cache_.begin(); it != cache_.end(); ++it) {
            if (!it->second.ready || it->second.bytes == 0)
                continue;
            ++candidates;
            if (victim == cache_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == cache_.end() || candidates <= 1)
            return;
        totalBytes_ -= victim->second.bytes;
        ++evictions_;
        cache_.erase(victim);
    }
}

bool
GraphStore::evictSlotLocked(const Key& key)
{
    auto it = cache_.find(key);
    if (it == cache_.end())
        return false;
    if (it->second.ready) {
        totalBytes_ -= it->second.bytes;
        ++evictions_;
    }
    cache_.erase(it);
    return true;
}

bool
GraphStore::evict(GraphPreset p, double scale)
{
    MutexLock lock(mu_);
    return evictSlotLocked(Key{p, quantizeScale(scale), {}});
}

bool
GraphStore::evictFile(const std::string& path)
{
    MutexLock lock(mu_);
    return evictSlotLocked(Key{GraphPreset::Amz, kScaleUnits, path});
}

void
GraphStore::clear()
{
    MutexLock lock(mu_);
    for (const auto& [key, slot] : cache_) {
        (void)key;
        if (slot.ready)
            ++evictions_;
    }
    cache_.clear();
    totalBytes_ = 0;
}

std::size_t
GraphStore::size() const
{
    MutexLock lock(mu_);
    return cache_.size();
}

void
GraphStore::setBudgetBytes(std::size_t bytes)
{
    MutexLock lock(mu_);
    budgetBytes_ = bytes;
    enforceBudgetLocked();
}

void
GraphStore::setCacheDir(std::string dir)
{
    MutexLock lock(mu_);
    cacheDir_ = std::move(dir);
}

std::string
GraphStore::cacheDir() const
{
    MutexLock lock(mu_);
    return cacheDir_;
}

void
GraphStore::setBuildThreads(unsigned threads)
{
    MutexLock lock(mu_);
    buildThreads_ = threads;
}

std::size_t
GraphStore::budgetBytes() const
{
    MutexLock lock(mu_);
    return budgetBytes_;
}

std::size_t
GraphStore::totalBytes() const
{
    MutexLock lock(mu_);
    return totalBytes_;
}

GraphStore::Counters
GraphStore::counters() const
{
    MutexLock lock(mu_);
    Counters c;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    c.entries = cache_.size();
    c.residentBytes = totalBytes_;
    c.budgetBytes = budgetBytes_;
    return c;
}

std::vector<GraphStore::EntryStats>
GraphStore::stats() const
{
    struct Row
    {
        EntryStats stats;
        std::uint64_t lastUse;
    };
    std::vector<Row> rows;
    {
        MutexLock lock(mu_);
        rows.reserve(cache_.size());
        for (const auto& [key, slot] : cache_) {
            EntryStats e;
            if (key.path.empty()) {
                e.name = presetName(key.preset);
                e.scale = static_cast<double>(key.scaleUnits) /
                          static_cast<double>(kScaleUnits);
            } else {
                e.name = key.path;
                e.scale = 1.0;
            }
            e.bytes = slot.ready ? slot.bytes : 0;
            rows.push_back({std::move(e), slot.lastUse});
        }
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.lastUse > b.lastUse; });
    std::vector<EntryStats> out;
    out.reserve(rows.size());
    for (Row& r : rows)
        out.push_back(std::move(r.stats));
    return out;
}

} // namespace gga
