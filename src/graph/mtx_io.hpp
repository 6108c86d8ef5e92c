/**
 * @file
 * MatrixMarket coordinate-format IO, so the real SuiteSparse inputs used by
 * the paper (amazon0601, ..., wing) can be dropped in place of the synthetic
 * presets when available.
 */

#ifndef GGA_GRAPH_MTX_IO_HPP
#define GGA_GRAPH_MTX_IO_HPP

#include <iosfwd>
#include <string>

#include "graph/csr.hpp"

namespace gga {

/**
 * Parse a MatrixMarket "matrix coordinate" stream into a canonical graph
 * (symmetrized; self-loops removed unless @p keep_self_loops). Supports
 * pattern/real/integer fields and general/symmetric symmetry. Numeric
 * values are ignored; use @p with_weights to attach the library's
 * deterministic weights. Set @p keep_self_loops for a lossless
 * write->read round trip of graphs that carry self-edges; the default
 * matches the paper's canonicalization (Sec. V-A).
 *
 * Throws GraphError on malformed input.
 */
CsrGraph readMatrixMarket(std::istream& in, bool with_weights = false,
                          bool keep_self_loops = false);

/** Convenience overload reading from a file path; GraphError if absent. */
CsrGraph readMatrixMarketFile(const std::string& path,
                              bool with_weights = false,
                              bool keep_self_loops = false);

/**
 * Write a graph as "matrix coordinate pattern symmetric": each undirected
 * pair (including self-loops) emitted once with 1-based indices, so a
 * write->read round trip through readMatrixMarket(in, w, true) is exact.
 */
void writeMatrixMarket(std::ostream& out, const CsrGraph& g);

} // namespace gga

#endif // GGA_GRAPH_MTX_IO_HPP
