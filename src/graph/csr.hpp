/**
 * @file
 * Compressed-sparse-row graph representation.
 *
 * Following the paper's methodology (Sec. V-A), every input is a *directed,
 * symmetric* graph with self-edges removed, so the same CSR serves as both
 * the out-edge (push) and in-edge (pull) view.
 */

#ifndef GGA_GRAPH_CSR_HPP
#define GGA_GRAPH_CSR_HPP

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace gga {

/**
 * An input graph that cannot be built: a missing or malformed
 * MatrixMarket file, or a synthetic spec the generator cannot meet. An
 * exception, not a fatal, so a served unit with a bad input fails alone.
 */
class GraphError : public std::runtime_error
{
  public:
    explicit GraphError(const std::string& why) : std::runtime_error(why) {}
};

/**
 * An immutable CSR graph. Edges are directed; the builders in this library
 * always produce symmetric edge sets (u->v present iff v->u present).
 *
 * Two storage modes share one read API:
 *  - **Owning**: constructed from vectors, which the graph holds.
 *  - **Borrowed**: the arrays alias caller-provided memory (e.g. an
 *    mmap'ed snapshot) kept alive by a type-erased keeper, so loading a
 *    multi-hundred-MB graph copies nothing.
 */
class CsrGraph
{
  public:
    CsrGraph() { rebindOwned(); }

    /**
     * Construct from raw CSR arrays (owning mode).
     *
     * @param row_offsets |V|+1 monotone offsets into col_indices.
     * @param col_indices edge targets, sorted within each row.
     * @param weights optional per-edge weights (same length as col_indices).
     */
    CsrGraph(std::vector<EdgeId> row_offsets,
             std::vector<VertexId> col_indices,
             std::vector<std::uint32_t> weights = {});

    /**
     * Borrowed-storage mode: the spans alias memory owned by @p storage
     * (an mmap'ed snapshot, an arena...), which is held alive for the
     * graph's lifetime and shared by copies. Same structural
     * preconditions as the owning constructor.
     */
    CsrGraph(std::span<const EdgeId> row_offsets,
             std::span<const VertexId> col_indices,
             std::span<const std::uint32_t> weights,
             std::shared_ptr<const void> storage);

    CsrGraph(const CsrGraph& o) { assignCopy(o); }
    CsrGraph(CsrGraph&& o) noexcept { assignMove(std::move(o)); }

    CsrGraph&
    operator=(const CsrGraph& o)
    {
        if (this != &o)
            assignCopy(o);
        return *this;
    }

    CsrGraph&
    operator=(CsrGraph&& o) noexcept
    {
        if (this != &o)
            assignMove(std::move(o));
        return *this;
    }

    /** Number of vertices. */
    VertexId numVertices() const { return numVertices_; }

    /** Number of directed edges (2x the undirected pair count). */
    EdgeId numEdges() const { return static_cast<EdgeId>(colIndices_.size()); }

    /** Out-degree (== in-degree for symmetric graphs). */
    std::uint32_t
    degree(VertexId v) const
    {
        return rowOffsets_[v + 1] - rowOffsets_[v];
    }

    /** First edge index of vertex v's adjacency list. */
    EdgeId edgeBegin(VertexId v) const { return rowOffsets_[v]; }

    /** One-past-last edge index of vertex v's adjacency list. */
    EdgeId edgeEnd(VertexId v) const { return rowOffsets_[v + 1]; }

    /** Neighbors of v as a span. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        return {colIndices_.data() + rowOffsets_[v], degree(v)};
    }

    /** Target of directed edge e. */
    VertexId edgeTarget(EdgeId e) const { return colIndices_[e]; }

    /** Weight of directed edge e (graphs without weights report 1). */
    std::uint32_t
    edgeWeight(EdgeId e) const
    {
        return weights_.empty() ? 1u : weights_[e];
    }

    bool hasWeights() const { return !weights_.empty(); }

    /** Average degree |E|/|V| (0 for empty graphs). */
    double avgDegree() const;

    /**
     * Resident size of the CSR arrays in bytes (GraphStore budget
     * accounting / telemetry). Borrowed graphs report the aliased bytes:
     * mapped pages become resident once touched, so they budget the same.
     */
    std::size_t
    memoryBytes() const
    {
        return sizeof(CsrGraph) + rowOffsets_.size() * sizeof(EdgeId) +
               colIndices_.size() * sizeof(VertexId) +
               weights_.size() * sizeof(std::uint32_t);
    }

    /** Raw arrays (used by the simulator to place graph data in memory). */
    std::span<const EdgeId> rowOffsets() const { return rowOffsets_; }
    std::span<const VertexId> colIndices() const { return colIndices_; }
    std::span<const std::uint32_t> weights() const { return weights_; }

    /** True when the arrays alias external storage (e.g. a snapshot map). */
    bool borrowsStorage() const { return storage_ != nullptr; }

    /**
     * Exact structural equality over all CSR arrays (offsets, targets,
     * weights). Used to verify that alternative build paths — the
     * parallel counting-sort builder, parallel synthesis, binary snapshot
     * round trips — are byte-identical to the reference. Storage mode is
     * deliberately not part of the comparison.
     */
    bool
    operator==(const CsrGraph& o) const
    {
        const auto eq = [](const auto& a, const auto& b) {
            return a.size() == b.size() &&
                   std::equal(a.begin(), a.end(), b.begin());
        };
        return numVertices_ == o.numVertices_ &&
               eq(rowOffsets_, o.rowOffsets_) &&
               eq(colIndices_, o.colIndices_) && eq(weights_, o.weights_);
    }

    /** True if for every edge u->v the reverse edge v->u exists. */
    bool isSymmetric() const;

    /** True if no vertex has an edge to itself. */
    bool hasNoSelfLoops() const;

  private:
    void validate() const;

    /** Point the spans at the owned vectors (owning mode only). */
    void
    rebindOwned()
    {
        rowOffsets_ = ownedOffsets_;
        colIndices_ = ownedCols_;
        weights_ = ownedWeights_;
    }

    void assignCopy(const CsrGraph& o);
    void assignMove(CsrGraph&& o) noexcept;

    VertexId numVertices_ = 0;
    // Owning mode keeps the arrays here; borrowed mode leaves them empty
    // and holds the real owner in storage_. The spans are the single
    // source of truth for readers in both modes.
    std::vector<EdgeId> ownedOffsets_{0};
    std::vector<VertexId> ownedCols_;
    std::vector<std::uint32_t> ownedWeights_;
    std::span<const EdgeId> rowOffsets_;
    std::span<const VertexId> colIndices_;
    std::span<const std::uint32_t> weights_;
    std::shared_ptr<const void> storage_;
};

} // namespace gga

#endif // GGA_GRAPH_CSR_HPP
