#include "graph/builder.hpp"

#include <algorithm>

#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace gga {

GraphBuilder::GraphBuilder(VertexId num_vertices) : numVertices_(num_vertices)
{
}

void
GraphBuilder::addEdge(VertexId u, VertexId v)
{
    GGA_ASSERT(u < numVertices_ && v < numVertices_,
               "edge endpoint out of range: ", u, "->", v);
    srcs_.push_back(u);
    dsts_.push_back(v);
}

void
GraphBuilder::addUndirected(VertexId u, VertexId v)
{
    addEdge(u, v);
    addEdge(v, u);
}

std::uint32_t
pairWeight(VertexId u, VertexId v)
{
    const VertexId lo = std::min(u, v);
    const VertexId hi = std::max(u, v);
    return 1u + static_cast<std::uint32_t>(hashCombine(lo, hi) % 31ull);
}

CsrGraph
GraphBuilder::build(bool with_weights) const
{
    const unsigned threads = threads_ == 0 ? defaultThreads() : threads_;
    const std::size_t raw = srcs_.size();
    const std::size_t n = numVertices_;
    // Give each worker at least ~16k raw edges: below that the fork-join
    // overhead outweighs the split, and the counting construction beats
    // a global sort on its own.
    const std::size_t max_useful =
        std::max<std::size_t>(1, raw / (16 * 1024));
    const unsigned T = static_cast<unsigned>(
        std::min<std::size_t>(std::max(1u, threads), max_useful));

    const auto slice_begin = [raw, T](unsigned t) {
        return raw * t / T;
    };

    // Phase 1 (parallel): per-thread, per-row counts of the symmetrized
    // directed edges each slice of the raw list contributes.
    std::vector<std::vector<EdgeId>> counts(
        T, std::vector<EdgeId>(n, 0));
    forkJoin(T, [&](unsigned t) {
        std::vector<EdgeId>& c = counts[t];
        const std::size_t end = slice_begin(t + 1);
        for (std::size_t i = slice_begin(t); i < end; ++i) {
            const VertexId u = srcs_[i];
            const VertexId v = dsts_[i];
            if (u == v)
                continue;
            c[u]++;
            c[v]++;
        }
    });

    // Phase 2 (serial, O(|V| x T)): raw per-row offsets, and each
    // (thread, row) count turned into that thread's absolute write
    // cursor — row segments are laid out [thread 0's part | thread 1's
    // part | ...], so scatter writes are disjoint by construction.
    std::vector<EdgeId> raw_offsets(n + 1);
    EdgeId acc = 0;
    for (std::size_t v = 0; v < n; ++v) {
        raw_offsets[v] = acc;
        for (unsigned t = 0; t < T; ++t) {
            const EdgeId part = counts[t][v];
            counts[t][v] = acc;
            acc += part;
        }
    }
    raw_offsets[n] = acc;

    // Phase 3 (parallel): scatter edge targets into their row segments.
    std::vector<VertexId> scratch(acc);
    forkJoin(T, [&](unsigned t) {
        std::vector<EdgeId>& cursor = counts[t];
        const std::size_t end = slice_begin(t + 1);
        for (std::size_t i = slice_begin(t); i < end; ++i) {
            const VertexId u = srcs_[i];
            const VertexId v = dsts_[i];
            if (u == v)
                continue;
            scratch[cursor[u]++] = v;
            scratch[cursor[v]++] = u;
        }
    });

    // Phase 4 (parallel): sort + dedupe each row in place. Rows are
    // partitioned into contiguous ranges of roughly equal edge mass so
    // one hub-heavy stretch doesn't serialize the phase.
    std::vector<VertexId> row_split(T + 1, 0);
    row_split[T] = static_cast<VertexId>(n);
    for (unsigned t = 1; t < T; ++t) {
        const EdgeId target =
            static_cast<EdgeId>(static_cast<std::uint64_t>(acc) * t / T);
        row_split[t] = static_cast<VertexId>(
            std::upper_bound(raw_offsets.begin(), raw_offsets.end() - 1,
                             target) -
            raw_offsets.begin());
        row_split[t] = std::max(row_split[t], row_split[t - 1]);
    }
    std::vector<EdgeId> dedup_len(n);
    forkJoin(T, [&](unsigned t) {
        for (VertexId v = row_split[t]; v < row_split[t + 1]; ++v) {
            VertexId* const first = scratch.data() + raw_offsets[v];
            VertexId* const last = scratch.data() + raw_offsets[v + 1];
            std::sort(first, last);
            dedup_len[v] =
                static_cast<EdgeId>(std::unique(first, last) - first);
        }
    });

    // Phase 5: final offsets (serial prefix), then parallel compaction
    // and weight derivation over the same row ranges.
    std::vector<EdgeId> offsets(n + 1);
    EdgeId total = 0;
    for (std::size_t v = 0; v < n; ++v) {
        offsets[v] = total;
        total += dedup_len[v];
    }
    offsets[n] = total;
    std::vector<VertexId> cols(total);
    std::vector<std::uint32_t> weights;
    if (with_weights)
        weights.resize(total);
    forkJoin(T, [&](unsigned t) {
        for (VertexId v = row_split[t]; v < row_split[t + 1]; ++v) {
            const VertexId* const src = scratch.data() + raw_offsets[v];
            const EdgeId base = offsets[v];
            for (EdgeId i = 0; i < dedup_len[v]; ++i) {
                cols[base + i] = src[i];
                if (with_weights)
                    weights[base + i] = pairWeight(v, src[i]);
            }
        }
    });
    return CsrGraph(std::move(offsets), std::move(cols), std::move(weights));
}

} // namespace gga
