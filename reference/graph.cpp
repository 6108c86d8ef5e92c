#include "reference/graph.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "graph/synth_util.hpp"
#include "reference/rng.hpp"
#include "support/flat_map.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace gga {

// ---------------------------------------------------------------------------
// Frozen v1 synthesis (sequential single-stream) — the perf baseline that
// bench/graph_build measures the parallel path against. Not addressed by
// specContentHash and never cached; deliberately kept byte-for-byte as it
// shipped so the committed speedup always compares against the same work.
// ---------------------------------------------------------------------------

namespace {

using synth::drawDegree;
using synth::pairKey;
using synth::stochRound;

/**
 * Mutable pair-set during v1 synthesis: O(1) membership + random
 * removal. Membership lives in open-addressing FlatSets; the list_
 * vector preserves insertion order, which the trim loop's random
 * indexing depends on.
 */
class PairSet
{
  public:
    bool
    insert(VertexId a, VertexId b, bool protect)
    {
        const std::uint64_t key = pairKey(a, b);
        if (!set_.insert(key))
            return false;
        list_.push_back(key);
        if (protect)
            protected_.insert(key);
        return true;
    }

    bool contains(VertexId a, VertexId b) const
    {
        return set_.contains(pairKey(a, b));
    }

    std::size_t size() const { return list_.size(); }

    /**
     * Pre-size for @p n pairs, @p protected_hint of which will be
     * protected — the set, the insertion-order list, and the protected
     * set all get their storage up front, so nothing rehashes or
     * reallocates mid-synthesis.
     */
    void
    reserve(std::size_t n, std::size_t protected_hint = 0)
    {
        set_.reserve(n);
        list_.reserve(n);
        protected_.reserve(protected_hint);
    }

    /**
     * Remove a random unprotected pair; returns it, or nullopt when 256
     * draws all hit protected pairs. A sentinel return would be
     * ambiguous: key 0 encodes the legal pair (0, 0).
     */
    std::optional<std::uint64_t>
    removeRandom(Xoshiro256StarStar& rng)
    {
        for (int attempts = 0; attempts < 256; ++attempts) {
            const std::size_t i = rng.nextBounded(list_.size());
            const std::uint64_t key = list_[i];
            if (protected_.contains(key))
                continue;
            list_[i] = list_.back();
            list_.pop_back();
            set_.erase(key);
            return key;
        }
        return std::nullopt;
    }

    const std::vector<std::uint64_t>& pairs() const { return list_; }

  private:
    FlatSet<std::uint64_t> set_;
    FlatSet<std::uint64_t> protected_;
    std::vector<std::uint64_t> list_;
};

/** v1 degree-biased sampler: binary search over a cumulative array. */
class BiasedSampler
{
  public:
    explicit BiasedSampler(const std::vector<double>& weights)
    {
        cum_.reserve(weights.size());
        double acc = 0.0;
        for (double w : weights) {
            acc += w;
            cum_.push_back(acc);
        }
        total_ = acc;
    }

    VertexId
    draw(Xoshiro256StarStar& rng) const
    {
        const double x = rng.nextDouble() * total_;
        const auto it = std::upper_bound(cum_.begin(), cum_.end(), x);
        const std::size_t i = static_cast<std::size_t>(it - cum_.begin());
        return static_cast<VertexId>(std::min(i, cum_.size() - 1));
    }

  private:
    std::vector<double> cum_;
    double total_ = 0.0;
};

void
synthesizeDegreeDrivenV1(const GenSpec& spec, Xoshiro256StarStar& rng,
                         PairSet& pairs)
{
    const VertexId n = spec.numVertices;

    // 1. Target degrees, descending (clustered hubs).
    std::vector<double> degree(n);
    for (auto& d : degree) {
        d = std::clamp(drawDegree(spec, rng), 1.0,
                       static_cast<double>(spec.maxDegree));
    }
    std::sort(degree.begin(), degree.end(), std::greater<>());

    std::vector<char> forced(n, 0);
    if (spec.forceTopDegrees) {
        double d = spec.maxDegree;
        for (VertexId i = 0; i < std::min<VertexId>(16, n); ++i) {
            degree[i] = std::max(degree[i], d);
            forced[i] = 1;
            d *= 0.72;
        }
    }

    // 2. Hub placement.
    if (spec.fullShuffle) {
        for (VertexId i = n; i > 1; --i) {
            const auto j = rng.nextBounded(i);
            std::swap(degree[i - 1], degree[j]);
            std::swap(forced[i - 1], forced[j]);
        }
    } else {
        const std::uint32_t pool =
            std::min<std::uint32_t>(spec.hubPoolSize, n);
        for (std::uint32_t s = 0; s < spec.scatterHubCount && pool > 0;
             ++s) {
            const auto a = rng.nextBounded(pool);
            const auto b = rng.nextBounded(n);
            std::swap(degree[a], degree[b]);
            std::swap(forced[a], forced[b]);
        }
    }

    // 3. Connectivity backbone: random-ancestor tree.
    if (spec.backbone) {
        for (VertexId u = 1; u < n; ++u) {
            VertexId anc;
            if (spec.backboneBand > 0) {
                const std::uint64_t span =
                    std::min<std::uint64_t>(spec.backboneBand, u);
                anc = u - 1 - static_cast<VertexId>(rng.nextBounded(span));
            } else {
                anc = static_cast<VertexId>(rng.nextBounded(u));
            }
            pairs.insert(u, anc, true);
        }
    }

    BiasedSampler global(degree);
    std::vector<std::uint32_t> curDeg(n, 0);
    if (spec.backbone) {
        for (std::uint64_t key : pairs.pairs()) {
            curDeg[key >> 32]++;
            curDeg[key & 0xffffffffu]++;
        }
    }

    // 4. Locality-controlled stub initiation, one global stream.
    const double backbone_share = spec.backbone ? 1.0 : 0.0;
    for (VertexId u = 0; u < n; ++u) {
        const double init_frac = forced[u] ? 1.0 : 0.5;
        const std::uint32_t budget =
            stochRound(degree[u] * init_frac - backbone_share, rng);
        for (std::uint32_t i = 0; i < budget; ++i) {
            if (curDeg[u] >= spec.maxDegree)
                break;
            for (int attempt = 0; attempt < 8; ++attempt) {
                const double r = attempt >= 6 ? 1.0 : rng.nextDouble();
                VertexId v;
                if (r < spec.fracIntraBlock) {
                    const VertexId block = u / spec.blockSize;
                    const VertexId lo = block * spec.blockSize;
                    const VertexId span =
                        std::min<VertexId>(spec.blockSize, n - lo);
                    v = lo + static_cast<VertexId>(rng.nextBounded(span));
                } else if (r < spec.fracIntraBlock + spec.fracBand) {
                    const auto off =
                        1 + static_cast<std::int64_t>(
                                rng.nextBounded(spec.bandWidth));
                    const std::int64_t signedv =
                        (rng.next() & 1)
                            ? static_cast<std::int64_t>(u) + off
                            : static_cast<std::int64_t>(u) - off;
                    if (signedv < 0 ||
                        signedv >= static_cast<std::int64_t>(n))
                        continue;
                    v = static_cast<VertexId>(signedv);
                } else {
                    v = global.draw(rng);
                }
                if (v == u || curDeg[v] >= spec.maxDegree ||
                    pairs.contains(u, v)) {
                    continue;
                }
                pairs.insert(u, v, false);
                curDeg[u]++;
                curDeg[v]++;
                break;
            }
        }
    }
}

void
synthesizeGrid2dV1(const GenSpec& spec, Xoshiro256StarStar& rng,
                   PairSet& pairs)
{
    const std::uint64_t rows = spec.gridRows;
    const std::uint64_t cols = spec.gridCols;
    const std::uint64_t grid_n = rows * cols;
    GGA_ASSERT(grid_n <= spec.numVertices,
               "grid larger than vertex budget in spec ", spec.name);

    std::vector<VertexId> label(spec.numVertices);
    for (VertexId i = 0; i < spec.numVertices; ++i)
        label[i] = i;
    if (spec.permuteLabels) {
        for (VertexId i = spec.numVertices; i > 1; --i) {
            const auto j = rng.nextBounded(i);
            std::swap(label[i - 1], label[j]);
        }
    }

    auto at = [&](std::uint64_t r, std::uint64_t c) {
        return label[static_cast<VertexId>(r * cols + c)];
    };
    for (std::uint64_t r = 0; r < rows; ++r) {
        for (std::uint64_t c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                pairs.insert(at(r, c), at(r, c + 1), false);
            if (r + 1 < rows)
                pairs.insert(at(r, c), at(r + 1, c), false);
        }
    }

    const std::uint64_t pendants = spec.numVertices - grid_n;
    const std::uint64_t stride = pendants ? std::max<std::uint64_t>(
                                                1, cols / (pendants + 1))
                                          : 1;
    for (std::uint64_t i = 0; i < pendants; ++i) {
        const auto p = static_cast<VertexId>(grid_n + i);
        const std::uint64_t c = std::min(cols - 2, 1 + i * stride);
        pairs.insert(label[p], at(0, c), true);
    }
}

} // namespace

CsrGraph
generateGraphReference(const GenSpec& spec, unsigned build_threads)
{
    GGA_ASSERT(spec.numVertices > 1, "graph needs >= 2 vertices");
    GGA_ASSERT(spec.numDirectedEdges % 2 == 0,
               "directed edge target must be even (symmetric graph)");

    Xoshiro256StarStar rng(hashCombine(spec.seed, 0x66a51ull));

    PairSet pairs;
    // Synthesis overshoots the pair target before trimming; reserving a
    // little past it keeps the membership set from rehashing mid-stream.
    pairs.reserve(static_cast<std::size_t>(spec.numDirectedEdges / 2) +
                      spec.numDirectedEdges / 8,
                  spec.backbone && spec.topology == Topology::DegreeDriven
                      ? spec.numVertices - 1
                      : 0);
    switch (spec.topology) {
      case Topology::DegreeDriven:
        synthesizeDegreeDrivenV1(spec, rng, pairs);
        break;
      case Topology::Grid2d:
        synthesizeGrid2dV1(spec, rng, pairs);
        break;
    }

    const std::size_t target_pairs = spec.numDirectedEdges / 2;
    while (pairs.size() > target_pairs) {
        if (!pairs.removeRandom(rng))
            GGA_FATAL("cannot trim graph ", spec.name,
                      ": too many protected pairs");
    }
    std::size_t pad_failures = 0;
    while (pairs.size() < target_pairs) {
        const auto a =
            static_cast<VertexId>(rng.nextBounded(spec.numVertices));
        const auto b =
            static_cast<VertexId>(rng.nextBounded(spec.numVertices));
        if (a == b || !pairs.insert(a, b, false)) {
            if (++pad_failures > 64 * target_pairs)
                GGA_FATAL("cannot pad graph ", spec.name, " to ",
                          target_pairs, " pairs");
        }
    }

    GraphBuilder builder(spec.numVertices);
    builder.threads(build_threads);
    for (std::uint64_t key : pairs.pairs()) {
        builder.addEdge(static_cast<VertexId>(key >> 32),
                        static_cast<VertexId>(key & 0xffffffffu));
    }
    return builder.build(/*with_weights=*/true);
}

CsrGraph
buildReferenceSort(const GraphBuilder& builder, bool with_weights)
{
    // Symmetrize: every raw edge contributes both directions; self-loops
    // are dropped. Dedup happens after sorting per row.
    const std::span<const VertexId> srcs = builder.rawSources();
    const std::span<const VertexId> dsts = builder.rawTargets();
    std::vector<std::uint64_t> pairs;
    pairs.reserve(srcs.size() * 2);
    for (std::size_t i = 0; i < srcs.size(); ++i) {
        const VertexId u = srcs[i];
        const VertexId v = dsts[i];
        if (u == v)
            continue;
        pairs.push_back((static_cast<std::uint64_t>(u) << 32) | v);
        pairs.push_back((static_cast<std::uint64_t>(v) << 32) | u);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

    const std::size_t n = builder.numVertices();
    std::vector<EdgeId> offsets(n + 1, 0);
    for (std::uint64_t p : pairs)
        offsets[(p >> 32) + 1]++;
    for (std::size_t v = 0; v < n; ++v)
        offsets[v + 1] += offsets[v];

    std::vector<VertexId> cols(pairs.size());
    std::vector<std::uint32_t> weights;
    if (with_weights)
        weights.resize(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        cols[i] = static_cast<VertexId>(pairs[i] & 0xffffffffu);
        if (with_weights) {
            weights[i] =
                pairWeight(static_cast<VertexId>(pairs[i] >> 32), cols[i]);
        }
    }
    return CsrGraph(std::move(offsets), std::move(cols), std::move(weights));
}

} // namespace gga
