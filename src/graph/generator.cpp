#include "graph/generator.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "graph/builder.hpp"
#include "graph/synth_util.hpp"
#include "support/flat_map.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace gga {

namespace {

using synth::drawDegree;
using synth::keyHi;
using synth::keyLo;
using synth::pairKey;
using synth::stochRound;

// ---------------------------------------------------------------------------
// Parallel deterministic synthesis (generator v2).
//
// Every stochastic choice draws from a counter-based SplitRng stream keyed
// by (spec.seed, phase, owner index) — per vertex for degree/backbone
// draws, per fixed-size vertex block for stub initiation, one dedicated
// stream each for placement, trim, and pad. Work decomposes over those
// fixed owners (never over threads), and cross-block merging is resolved
// in a fixed block order, so the output is byte-identical at every thread
// count. The phases:
//
//   1. per-vertex target degrees            (parallel, stream per vertex)
//   2. sort + forced ramp + hub placement   (serial, own stream)
//   3. per-vertex backbone ancestors        (parallel, stream per vertex)
//   4. alias-table build over the degrees   (serial, no draws)
//   5. per-block stub initiation into       (parallel, stream per block)
//      per-(block, shard) candidate buckets
//   6. per-shard dedup in block order       (parallel, no draws)
//   7. degree-cap merge pass                (serial, no draws)
//   8. trim/pad to the exact pair target    (serial, own streams)
//
// Versus v1 (one sequential Xoshiro stream feeding one giant pair set),
// the hot loops also get algorithmically cheaper: partner sampling is a
// Walker alias table (two O(1) draws instead of a binary search over a
// |V|-sized cumulative array) and membership tests hit block-local or
// shard-local sets that stay cache-resident instead of one DRAM-sized
// table. That is where the committed single-core speedup comes from; the
// fork-join only multiplies it.
// ---------------------------------------------------------------------------

/** Fixed stub-initiation block: 4096 vertices per RNG stream/bucket row.
 *  Part of the deterministic decomposition — changing it changes graphs,
 *  so it participates in the generator version, not in tuning. */
constexpr std::uint64_t kSynthBlockVerts = 4096;

/** Fixed dedup shard count (hash-partitioned, so each shard's membership
 *  set stays small enough to be cache-resident). */
constexpr std::uint64_t kDedupShards = 64;

/**
 * Stub budgets are inflated by this factor so synthesis reliably
 * overshoots the pair target and lands on the cheap trim path (random
 * removals) instead of the pad path, which must first build a
 * membership set over every surviving pair. Trimming removes uniformly
 * at random, so the overshoot shrinks all degrees proportionally and
 * the distribution shape is preserved.
 */
constexpr double kBudgetOverdraw = 1.04;

/** Stream tags: one namespace per phase so no two phases ever share a
 *  counter sequence. Folded into SplitRng's stream id as
 *  (tag << 32) | owner_index. */
enum SynthStream : std::uint64_t
{
    kStreamDegree = 1,
    kStreamPlace = 2,
    kStreamBackbone = 3,
    kStreamStub = 4,
    kStreamTrim = 5,
    kStreamPad = 6,
    kStreamGrid = 7,
};

inline SplitRng
synthRng(const GenSpec& spec, SynthStream phase, std::uint64_t index = 0)
{
    return SplitRng(spec.seed, (static_cast<std::uint64_t>(phase) << 32) |
                                   index);
}

inline std::size_t
shardOf(std::uint64_t key)
{
    return static_cast<std::size_t>(hashMix64(key) >> 58); // top 6 bits
}
static_assert(kDedupShards == 64, "shardOf extracts log2(kDedupShards) bits");

/**
 * Walker alias table: degree-biased vertex sampling in O(1) draws.
 * Construction is the deterministic two-stack method (indices processed
 * ascending); the sampled distribution matches a cumulative-array
 * sampler over the same weights (up to the float rounding of the stored
 * acceptance probabilities). Each entry packs its acceptance probability
 * and alias target into 8 bytes so a draw costs one random cache line,
 * not two — the table is the one per-draw structure that cannot be made
 * cache-resident (it is |V|-sized), so its footprint is the floor on
 * global-draw cost.
 */
class AliasSampler
{
  public:
    explicit AliasSampler(const std::vector<double>& weights)
        : entries_(weights.size())
    {
        const std::size_t n = weights.size();
        double total = 0.0;
        for (double w : weights)
            total += w;
        GGA_ASSERT(n > 0 && total > 0.0, "alias table needs positive mass");
        std::vector<double> scaled(n);
        for (std::size_t i = 0; i < n; ++i) {
            scaled[i] = weights[i] * static_cast<double>(n) / total;
            entries_[i] = {1.0f, static_cast<VertexId>(i)};
        }
        std::vector<VertexId> small;
        std::vector<VertexId> large;
        for (std::size_t i = 0; i < n; ++i) {
            (scaled[i] < 1.0 ? small : large)
                .push_back(static_cast<VertexId>(i));
        }
        while (!small.empty() && !large.empty()) {
            const VertexId s = small.back();
            small.pop_back();
            const VertexId l = large.back();
            entries_[s] = {static_cast<float>(scaled[s]), l};
            scaled[l] -= 1.0 - scaled[s];
            if (scaled[l] < 1.0) {
                large.pop_back();
                small.push_back(l);
            }
        }
        // Leftovers on either stack are 1.0 up to rounding: self-alias.
    }

    VertexId
    draw(SplitRng& rng) const
    {
        const auto i =
            static_cast<std::size_t>(rng.nextBounded(entries_.size()));
        const Entry e = entries_[i];
        return rng.nextDouble() < e.prob ? static_cast<VertexId>(i)
                                         : e.alias;
    }

  private:
    struct Entry
    {
        float prob;
        VertexId alias;
    };
    static_assert(sizeof(Entry) == 8, "one cache line holds 8 entries");

    std::vector<Entry> entries_;
};

/**
 * Phases 1-7: produce the protected backbone pairs, the deduped capped
 * free pairs, and the running degree of every vertex (for the cap-aware
 * pad). All outputs are thread-count-invariant.
 */
void
degreeDrivenPairs(const GenSpec& spec, unsigned threads,
                  std::vector<std::uint64_t>& protected_pairs,
                  std::vector<std::uint64_t>& free_pairs,
                  std::vector<std::uint32_t>& curDeg)
{
    const VertexId n = spec.numVertices;

    // Phase 1: per-vertex target degrees. Keyed by vertex id, so the
    // draw for vertex u is the same no matter which thread runs it.
    std::vector<double> degree(n);
    parallelFor(threads, n, [&](std::size_t u) {
        SplitRng rng = synthRng(spec, kStreamDegree, u);
        degree[u] = std::clamp(drawDegree(spec, rng), 1.0,
                               static_cast<double>(spec.maxDegree));
    });

    // Phase 2 (serial): descending sort (clustered hubs), forced ramp,
    // hub placement — cheap O(n log n) on one dedicated stream.
    std::sort(degree.begin(), degree.end(), std::greater<>());
    std::vector<char> forced(n, 0);
    if (spec.forceTopDegrees) {
        // Pin the published maximum degree: a short geometric ramp of
        // "forced" hubs that initiate their entire target degree.
        double d = spec.maxDegree;
        for (VertexId i = 0; i < std::min<VertexId>(16, n); ++i) {
            degree[i] = std::max(degree[i], d);
            forced[i] = 1;
            d *= 0.72;
        }
    }
    {
        SplitRng rng = synthRng(spec, kStreamPlace);
        if (spec.fullShuffle) {
            for (VertexId i = n; i > 1; --i) {
                const auto j = rng.nextBounded(i);
                std::swap(degree[i - 1], degree[j]);
                std::swap(forced[i - 1], forced[j]);
            }
        } else {
            const std::uint32_t pool =
                std::min<std::uint32_t>(spec.hubPoolSize, n);
            for (std::uint32_t s = 0;
                 s < spec.scatterHubCount && pool > 0; ++s) {
                const auto a = rng.nextBounded(pool);
                const auto b = rng.nextBounded(n);
                std::swap(degree[a], degree[b]);
                std::swap(forced[a], forced[b]);
            }
        }
    }

    // Phase 3: backbone ancestors, one stream per vertex. anc doubles as
    // an O(1) backbone-membership oracle for the stub loop: (u, v) is a
    // backbone pair iff anc[u] == v or anc[v] == u (ancestors are always
    // strictly below their vertex, so the two directions cannot collide).
    std::vector<VertexId> anc(n, kInvalidVertex);
    if (spec.backbone) {
        protected_pairs.resize(n - 1);
        parallelFor(threads, n - 1, [&](std::size_t i) {
            const VertexId u = static_cast<VertexId>(i + 1);
            SplitRng rng = synthRng(spec, kStreamBackbone, u);
            VertexId a;
            if (spec.backboneBand > 0) {
                const std::uint64_t span =
                    std::min<std::uint64_t>(spec.backboneBand, u);
                a = u - 1 - static_cast<VertexId>(rng.nextBounded(span));
            } else {
                a = static_cast<VertexId>(rng.nextBounded(u));
            }
            anc[u] = a;
            protected_pairs[i] = pairKey(u, a);
        });
    }
    curDeg.assign(n, 0);
    for (std::uint64_t key : protected_pairs) {
        curDeg[keyLo(key)]++;
        curDeg[keyHi(key)]++;
    }

    // Phase 4 (serial, no draws): O(1) degree-biased partner sampler.
    const AliasSampler global(degree);

    // Phase 5: stub initiation over fixed 4096-vertex blocks, one stream
    // and one set of per-shard candidate buckets per block. Blocks dedup
    // locally (small cache-resident set) and against the backbone via
    // anc; cross-block duplicates survive until phase 6. Degree caps are
    // not consulted here — self-initiated budgets respect them by
    // construction, and partner-side overflow is settled in phase 7.
    const std::size_t num_blocks =
        (static_cast<std::size_t>(n) + kSynthBlockVerts - 1) /
        kSynthBlockVerts;
    std::vector<std::array<std::vector<std::uint64_t>, kDedupShards>>
        buckets(num_blocks);
    const double backbone_share = spec.backbone ? 1.0 : 0.0;
    parallelFor(threads, num_blocks, [&](std::size_t b) {
        SplitRng rng = synthRng(spec, kStreamStub, b);
        const VertexId lo = static_cast<VertexId>(b * kSynthBlockVerts);
        const VertexId hi = static_cast<VertexId>(
            std::min<std::uint64_t>(n, (b + 1) * kSynthBlockVerts));
        double expected = 0.0;
        for (VertexId u = lo; u < hi; ++u)
            expected += degree[u] * (forced[u] ? 1.0 : 0.5);
        expected *= kBudgetOverdraw;
        FlatSet<std::uint64_t> seen;
        seen.reserve(static_cast<std::size_t>(expected) + 16);
        auto& row = buckets[b];
        for (auto& bucket : row)
            bucket.reserve(static_cast<std::size_t>(expected) /
                               kDedupShards +
                           8);
        for (VertexId u = lo; u < hi; ++u) {
            const double init_frac = forced[u] ? 1.0 : 0.5;
            const std::uint32_t budget = stochRound(
                degree[u] * init_frac * kBudgetOverdraw - backbone_share,
                rng);
            for (std::uint32_t i = 0; i < budget; ++i) {
                for (int attempt = 0; attempt < 8; ++attempt) {
                    // The last attempts fall back to global partners so
                    // hub blocks that saturate locally still place
                    // their stubs.
                    const double r =
                        attempt >= 6 ? 1.0 : rng.nextDouble();
                    VertexId v;
                    if (r < spec.fracIntraBlock) {
                        const VertexId block = u / spec.blockSize;
                        const VertexId blo = block * spec.blockSize;
                        const VertexId span =
                            std::min<VertexId>(spec.blockSize, n - blo);
                        v = blo +
                            static_cast<VertexId>(rng.nextBounded(span));
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
                    if (v == u || anc[u] == v || anc[v] == u)
                        continue;
                    const std::uint64_t key = pairKey(u, v);
                    if (!seen.insert(key))
                        continue;
                    row[shardOf(key)].push_back(key);
                    break;
                }
            }
        }
    });

    // Phase 6: per-shard dedup. Each shard walks its buckets in block
    // order, so "first insertion wins" is a fixed order no matter how
    // shards are scheduled onto threads.
    std::array<std::vector<std::uint64_t>, kDedupShards> shard_kept;
    parallelFor(threads, kDedupShards, [&](std::size_t s) {
        std::size_t total = 0;
        for (std::size_t b = 0; b < num_blocks; ++b)
            total += buckets[b][s].size();
        FlatSet<std::uint64_t> set;
        set.reserve(total);
        auto& kept = shard_kept[s];
        kept.reserve(total);
        for (std::size_t b = 0; b < num_blocks; ++b) {
            for (std::uint64_t key : buckets[b][s]) {
                if (set.insert(key))
                    kept.push_back(key);
            }
        }
    });

    // Phase 7 (serial): merge shards in index order under the degree
    // cap. Pure array arithmetic — cheap enough that serializing it
    // costs little while making the cap outcome order-deterministic.
    std::size_t kept_total = 0;
    for (const auto& kept : shard_kept)
        kept_total += kept.size();
    free_pairs.reserve(kept_total);
    for (const auto& kept : shard_kept) {
        for (std::uint64_t key : kept) {
            const VertexId a = keyLo(key);
            const VertexId b = keyHi(key);
            if (curDeg[a] >= spec.maxDegree || curDeg[b] >= spec.maxDegree)
                continue;
            curDeg[a]++;
            curDeg[b]++;
            free_pairs.push_back(key);
        }
    }
}

/**
 * Grid synthesis (serial: the mesh is deterministic structure, only the
 * label permutation draws, and the grid presets are tiny next to the
 * degree-driven ones). Mesh edges are free; pendant attachments are
 * protected so trimming cannot disconnect them.
 */
void
grid2dPairs(const GenSpec& spec,
            std::vector<std::uint64_t>& protected_pairs,
            std::vector<std::uint64_t>& free_pairs)
{
    const std::uint64_t rows = spec.gridRows;
    const std::uint64_t cols = spec.gridCols;
    const std::uint64_t grid_n = rows * cols;
    GGA_ASSERT(grid_n <= spec.numVertices,
               "grid larger than vertex budget in spec ", spec.name);

    SplitRng rng = synthRng(spec, kStreamGrid);

    // Label permutation (identity when disabled).
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
    free_pairs.reserve(2 * grid_n);
    for (std::uint64_t r = 0; r < rows; ++r) {
        for (std::uint64_t c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                free_pairs.push_back(pairKey(at(r, c), at(r, c + 1)));
            if (r + 1 < rows)
                free_pairs.push_back(pairKey(at(r, c), at(r + 1, c)));
        }
    }

    // Pendant vertices (exact |V|): attach each to a distinct border
    // vertex (degree <= 3) so the mesh's maximum degree stays 4.
    const std::uint64_t pendants = spec.numVertices - grid_n;
    const std::uint64_t stride = pendants ? std::max<std::uint64_t>(
                                                1, cols / (pendants + 1))
                                          : 1;
    for (std::uint64_t i = 0; i < pendants; ++i) {
        const auto p = static_cast<VertexId>(grid_n + i);
        const std::uint64_t c = std::min(cols - 2, 1 + i * stride);
        protected_pairs.push_back(pairKey(label[p], at(0, c)));
    }
}

} // namespace

CsrGraph
generateGraph(const GenSpec& spec, unsigned build_threads)
{
    GGA_ASSERT(spec.numVertices > 1, "graph needs >= 2 vertices");
    GGA_ASSERT(spec.numDirectedEdges % 2 == 0,
               "directed edge target must be even (symmetric graph)");

    const unsigned threads =
        build_threads == 0 ? defaultThreads() : build_threads;

    // Synthesize: protected pairs (never trimmed) + free pairs, and for
    // degree-driven graphs the realized per-vertex degrees so padding
    // can respect the cap.
    std::vector<std::uint64_t> protected_pairs;
    std::vector<std::uint64_t> free_pairs;
    std::vector<std::uint32_t> curDeg;
    switch (spec.topology) {
      case Topology::DegreeDriven:
        degreeDrivenPairs(spec, threads, protected_pairs, free_pairs,
                          curDeg);
        break;
      case Topology::Grid2d:
        grid2dPairs(spec, protected_pairs, free_pairs);
        break;
    }

    // Trim or pad to the exact undirected pair target, each on its own
    // dedicated stream (so the draw sequence is independent of how many
    // pairs synthesis produced at any thread count — it is already
    // independent of thread count by construction).
    const std::size_t target_pairs = spec.numDirectedEdges / 2;
    const std::size_t num_protected = protected_pairs.size();
    std::size_t total = num_protected + free_pairs.size();
    {
        SplitRng rng = synthRng(spec, kStreamTrim);
        int protected_hits = 0;
        while (total > target_pairs) {
            const std::size_t i =
                static_cast<std::size_t>(rng.nextBounded(total));
            if (i < num_protected) {
                if (++protected_hits >= 256)
                    GGA_FATAL("cannot trim graph ", spec.name,
                              ": too many protected pairs");
                continue;
            }
            protected_hits = 0;
            const std::size_t j = i - num_protected;
            const std::uint64_t key = free_pairs[j];
            free_pairs[j] = free_pairs.back();
            free_pairs.pop_back();
            --total;
            if (!curDeg.empty()) {
                curDeg[keyLo(key)]--;
                curDeg[keyHi(key)]--;
            }
        }
    }
    if (total < target_pairs) {
        // Membership oracle only the pad path needs; the normal
        // overshoot-then-trim route never pays for it.
        FlatSet<std::uint64_t> member;
        member.reserve(total + (target_pairs - total) * 2);
        for (std::uint64_t key : protected_pairs)
            member.insert(key);
        for (std::uint64_t key : free_pairs)
            member.insert(key);
        SplitRng rng = synthRng(spec, kStreamPad);
        std::size_t failures = 0;
        const std::size_t relax_at = 8 * target_pairs + 64;
        while (total < target_pairs) {
            const auto a = static_cast<VertexId>(
                rng.nextBounded(spec.numVertices));
            const auto b = static_cast<VertexId>(
                rng.nextBounded(spec.numVertices));
            // Cap-aware while it can afford to be: stop rejecting
            // saturated endpoints once draws suggest too little spare
            // capacity, rather than spinning forever.
            const bool cap_ok =
                curDeg.empty() || failures > relax_at ||
                (curDeg[a] < spec.maxDegree && curDeg[b] < spec.maxDegree);
            if (a == b || !cap_ok || !member.insert(pairKey(a, b))) {
                if (++failures > 64 * target_pairs)
                    GGA_FATAL("cannot pad graph ", spec.name, " to ",
                              target_pairs, " pairs");
                continue;
            }
            free_pairs.push_back(pairKey(a, b));
            ++total;
            if (!curDeg.empty()) {
                curDeg[a]++;
                curDeg[b]++;
            }
        }
    }

    GraphBuilder builder(spec.numVertices);
    builder.threads(build_threads);
    builder.reserveEdges(total);
    for (std::uint64_t key : protected_pairs)
        builder.addEdge(keyLo(key), keyHi(key));
    for (std::uint64_t key : free_pairs)
        builder.addEdge(keyLo(key), keyHi(key));
    return builder.build(/*with_weights=*/true);
}

std::uint64_t
specContentHash(const GenSpec& spec)
{
    // Canonical fixed-width serialization of every generation-relevant
    // field (name excluded: it only labels log lines). kGeneratorVersion
    // participates so stale snapshot files are orphaned — never loaded —
    // whenever the synthesis algorithm changes.
    std::uint64_t h = kFnv1aBasis;
    const auto mix_u64 = [&h](std::uint64_t x) {
        h = fnv1a(&x, sizeof x, h);
    };
    const auto mix_f64 = [&h](double x) { h = fnv1a(&x, sizeof x, h); };
    mix_u64(kGeneratorVersion);
    mix_u64(static_cast<std::uint64_t>(spec.topology));
    mix_u64(spec.numVertices);
    mix_u64(spec.numDirectedEdges);
    mix_u64(static_cast<std::uint64_t>(spec.dist));
    mix_f64(spec.p1);
    mix_f64(spec.p2);
    mix_u64(spec.maxDegree);
    mix_f64(spec.fracIntraBlock);
    mix_f64(spec.fracBand);
    mix_u64(spec.bandWidth);
    mix_u64(spec.fullShuffle ? 1 : 0);
    mix_u64(spec.scatterHubCount);
    mix_u64(spec.hubPoolSize);
    mix_u64(spec.backbone ? 1 : 0);
    mix_u64(spec.backboneBand);
    mix_u64(spec.forceTopDegrees ? 1 : 0);
    mix_u64(spec.gridRows);
    mix_u64(spec.gridCols);
    mix_u64(spec.permuteLabels ? 1 : 0);
    mix_u64(spec.seed);
    mix_u64(spec.blockSize);
    return h;
}

} // namespace gga
