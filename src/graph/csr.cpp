#include "graph/csr.hpp"

#include <algorithm>
#include <utility>

#include "support/log.hpp"

namespace gga {

namespace {

/** The vectors a graph was built from, as its one storage block. */
struct Arrays
{
    std::vector<EdgeId> offsets;
    std::vector<VertexId> cols;
    std::vector<std::uint32_t> weights;
};

} // namespace

CsrGraph::CsrGraph(std::vector<EdgeId> row_offsets,
                   std::vector<VertexId> col_indices,
                   std::vector<std::uint32_t> weights)
{
    const auto arrays = std::make_shared<const Arrays>(
        Arrays{std::move(row_offsets), std::move(col_indices),
               std::move(weights)});
    *this = CsrGraph(arrays->offsets, arrays->cols, arrays->weights, arrays);
}

CsrGraph::CsrGraph(std::span<const EdgeId> row_offsets,
                   std::span<const VertexId> col_indices,
                   std::span<const std::uint32_t> weights,
                   std::shared_ptr<const void> storage)
    : numVertices_(row_offsets.empty()
                       ? 0
                       : static_cast<VertexId>(row_offsets.size() - 1)),
      rowOffsets_(row_offsets),
      colIndices_(col_indices),
      weights_(weights),
      storage_(std::move(storage))
{
    GGA_ASSERT(storage_ != nullptr, "CSR arrays need a live storage block");
    validate();
}

void
CsrGraph::validate() const
{
    GGA_ASSERT(!rowOffsets_.empty(), "row offsets must have >= 1 entry");
    GGA_ASSERT(rowOffsets_.front() == 0, "row offsets must start at 0");
    GGA_ASSERT(rowOffsets_.back() == colIndices_.size(),
               "row offsets must end at |E|, got ", rowOffsets_.back(),
               " vs ", colIndices_.size());
    GGA_ASSERT(std::is_sorted(rowOffsets_.begin(), rowOffsets_.end()),
               "row offsets must be monotone");
    GGA_ASSERT(weights_.empty() || weights_.size() == colIndices_.size(),
               "weights must be empty or match edge count");
    for (VertexId t : colIndices_)
        GGA_ASSERT(t < numVertices_, "edge target out of range: ", t);
}

double
CsrGraph::avgDegree() const
{
    if (numVertices_ == 0)
        return 0.0;
    return static_cast<double>(numEdges()) / static_cast<double>(numVertices_);
}

bool
CsrGraph::isSymmetric() const
{
    for (VertexId u = 0; u < numVertices_; ++u) {
        for (VertexId v : neighbors(u)) {
            const auto nb = neighbors(v);
            if (!std::binary_search(nb.begin(), nb.end(), u))
                return false;
        }
    }
    return true;
}

bool
CsrGraph::hasNoSelfLoops() const
{
    for (VertexId u = 0; u < numVertices_; ++u) {
        const auto nb = neighbors(u);
        if (std::binary_search(nb.begin(), nb.end(), u))
            return false;
    }
    return true;
}

} // namespace gga
