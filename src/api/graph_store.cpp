#include "api/graph_store.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "graph/mtx_io.hpp"
#include "graph/snapshot.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

/** Snapshot-load or synthesize preset @p p at canonicalScale(@p scale). */
GraphStore::GraphPtr
buildPreset(GraphPreset p, double scale, const std::string& cache_dir,
            unsigned threads)
{
    const std::string snap_path =
        cache_dir.empty() ? std::string{}
                          : GraphStore::snapshotPath(cache_dir, p, scale);
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
    // Build at the canonical scale, not the raw argument, so every
    // double mapping to this key yields the same graph.
    auto built = std::make_shared<const CsrGraph>(generateGraph(
        presetSpecScaled(p, GraphStore::canonicalScale(scale)), threads));
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

} // namespace

GraphStore&
GraphStore::instance()
{
    static GraphStore& store = *[] {
        static GraphStore s;
        if (const char* dir = std::getenv("GGA_GRAPH_CACHE"))
            s.setCacheDir(dir);
        return &s;
    }();
    return store;
}

std::int64_t
GraphStore::quantizeScale(double scale)
{
    return std::llround(scale * static_cast<double>(kScaleUnits));
}

double
GraphStore::canonicalScale(double scale)
{
    return static_cast<double>(quantizeScale(scale)) /
           static_cast<double>(kScaleUnits);
}

std::optional<std::string>
GraphStore::presetError(GraphPreset p, double scale)
{
    if (quantizeScale(scale) <= 0)
        return "scale rounds to zero; the smallest is 5e-7";
    // The spec get() would build: the canonical scale's.
    const std::optional<std::string> why =
        synthesisError(presetSpecScaled(p, canonicalScale(scale)));
    if (!why)
        return std::nullopt;
    return "scale is too small to synthesize " + presetName(p) + ": " + *why;
}

std::string
GraphStore::snapshotPath(const std::string& dir, GraphPreset p,
                         double scale)
{
    const GenSpec spec = presetSpecScaled(p, canonicalScale(scale));
    return dir + "/" +
           csrSnapshotFileName(presetName(p), quantizeScale(scale),
                               specContentHash(spec));
}

GraphStore::GraphPtr
GraphStore::get(GraphPreset p, double scale)
{
    GGA_ASSERT(scale > 0.0 && scale <= 1.0,
               "GraphStore scale must be in (0, 1], got ", scale);
    const std::int64_t units = quantizeScale(scale);
    GGA_ASSERT(units > 0, "scale ", scale, " quantizes to zero; "
               "the minimum representable scale is 5e-7");
    return getOrBuild(std::pair{p, units},
                      [p, scale](const std::string& dir, unsigned threads) {
                          return buildPreset(p, scale, dir, threads);
                      });
}

GraphStore::GraphPtr
GraphStore::getFile(const std::string& path)
{
    GGA_ASSERT(!path.empty(), "GraphStore file path must not be empty");
    return getOrBuild(path, [&path](const std::string&, unsigned) {
        // Weights attached so the file path serves weighted apps (SSSP)
        // exactly like the presets do.
        return std::make_shared<const CsrGraph>(
            readMatrixMarketFile(path, /*with_weights=*/true));
    });
}

GraphStore::GraphPtr
GraphStore::getOrBuild(const Key& key, const Build& build)
{
    std::promise<GraphPtr> promise;
    std::shared_future<GraphPtr> future;
    bool builder = false;
    std::string cache_dir;
    unsigned build_threads = 0;
    {
        MutexLock lock(mu_);
        const auto [it, inserted] = cache_.try_emplace(key);
        if (inserted) {
            builder = true;
            ++misses_;
            it->second.future = promise.get_future().share();
            // Snapshot of the knobs this build runs under: the build
            // happens outside the lock, and a concurrent setCacheDir /
            // setBuildThreads must not race it.
            cache_dir = cacheDir_;
            build_threads = buildThreads_;
        } else {
            ++hits_;
        }
        it->second.lastUse = ++useTick_;
        future = it->second.future;
    }
    if (builder) {
        // Build outside the lock so distinct keys build concurrently;
        // waiters for this key block on the shared future instead. Only
        // completed slots ever leave the map, so this one is still
        // there, and still this build's, when the build ends.
        try {
            GraphPtr built = build(cache_dir, build_threads);
            {
                MutexLock lock(mu_);
                Slot& slot = cache_.at(key);
                slot.bytes = built->memoryBytes();
                totalBytes_ += slot.bytes;
                enforceBudgetLocked();
            }
            promise.set_value(std::move(built));
        } catch (...) {
            // Don't poison the cache slot: drop it so the next get()
            // retries, and propagate the failure to current waiters.
            {
                MutexLock lock(mu_);
                cache_.erase(key);
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
            if (it->second.bytes == 0)
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

void
GraphStore::clear()
{
    MutexLock lock(mu_);
    for (auto it = cache_.begin(); it != cache_.end();) {
        if (it->second.bytes == 0) {
            ++it; // running: its builder accounts it when done
        } else {
            ++evictions_;
            it = cache_.erase(it);
        }
    }
    totalBytes_ = 0;
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

void
GraphStore::setBuildThreads(unsigned threads)
{
    MutexLock lock(mu_);
    buildThreads_ = threads;
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

} // namespace gga
