/**
 * @file
 * Edge-list accumulator that produces canonical CsrGraph instances.
 */

#ifndef GGA_GRAPH_BUILDER_HPP
#define GGA_GRAPH_BUILDER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace gga {

/**
 * Collects (possibly duplicated, possibly self-looping, possibly one-sided)
 * edges and builds a deduplicated CSR. Matches the paper's input
 * canonicalization: self-edges removed, graph converted to directed
 * symmetric form (Sec. V-A).
 */
class GraphBuilder
{
  public:
    explicit GraphBuilder(VertexId num_vertices);

    /** Add a directed edge u->v (duplicates and self-loops filtered later). */
    void addEdge(VertexId u, VertexId v);

    /** Pre-size the raw edge arrays for @p raw_edges addEdge calls. */
    void
    reserveEdges(std::size_t raw_edges)
    {
        srcs_.reserve(srcs_.size() + raw_edges);
        dsts_.reserve(dsts_.size() + raw_edges);
    }

    /** Add both u->v and v->u. */
    void addUndirected(VertexId u, VertexId v);

    VertexId numVertices() const { return numVertices_; }

    /** The raw (pre-canonicalization) edges added so far, in order:
     *  edge i is rawSources()[i] -> rawTargets()[i]. */
    std::span<const VertexId> rawSources() const { return srcs_; }
    std::span<const VertexId> rawTargets() const { return dsts_; }

    /**
     * Keep self-loops in the built graph (one u->u edge each) instead of
     * dropping them. Off by default, matching the paper's
     * canonicalization; the MatrixMarket reader turns it on for lossless
     * round trips.
     */
    void keepSelfLoops(bool keep) { keepSelfLoops_ = keep; }
    bool keepsSelfLoops() const { return keepSelfLoops_; }

    /**
     * Worker threads for build(). 0 (the default) resolves through
     * defaultThreads() (support/parallel.hpp). The built graph is
     * bit-identical at every thread count — threads only change wall
     * time.
     */
    void threads(unsigned t) { threads_ = t; }

    /**
     * Build the canonical graph: drop self-loops (unless keepSelfLoops),
     * symmetrize, dedupe, sort adjacency lists.
     *
     * Runs the two-pass counting-sort construction: per-thread partitions
     * of the raw edge list are counted and scattered into per-row
     * segments, rows are sorted/deduped in parallel, and the result is
     * compacted — O(|E| + |V|) instead of a global O(|E| log |E|)
     * sort, and parallel across threads(). The output is byte-identical
     * to the frozen std::sort path (reference/graph.hpp) at every thread
     * count (the canonical form — sorted, deduplicated rows — does not
     * depend on construction order; tests assert it).
     *
     * @param with_weights derive deterministic per-undirected-pair weights
     *        in [1, 31] from a hash of the endpoint ids (both directions of
     *        a pair share the weight, as an undirected weighted graph
     *        requires).
     */
    CsrGraph build(bool with_weights = false) const;

  private:
    VertexId numVertices_;
    bool keepSelfLoops_ = false;
    unsigned threads_ = 0;
    std::vector<VertexId> srcs_;
    std::vector<VertexId> dsts_;
};

/** Deterministic weight in [1, 31] for the undirected pair {u, v}. */
std::uint32_t pairWeight(VertexId u, VertexId v);

} // namespace gga

#endif // GGA_GRAPH_BUILDER_HPP
