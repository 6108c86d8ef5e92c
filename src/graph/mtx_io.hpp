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
 * (symmetrized, self-loops removed: the paper's Sec. V-A). Supports
 * pattern/real/integer fields and general/symmetric symmetry. Numeric
 * values are ignored; use @p with_weights to attach the library's
 * deterministic weights.
 *
 * The parse is strict, and throws GraphError on malformed input. Fields
 * split on spaces and tabs (a CRLF line's '\r' counts as space). The
 * banner is exactly five words, the size line three whole decimals, and
 * an entry two 1-based indices plus, unless the field is pattern, one
 * number that std::from_chars reads whole. Blank and '%' lines are
 * skipped; any other line past the nnz-th entry is an error.
 */
CsrGraph readMatrixMarket(std::istream& in, bool with_weights = false);

/** Convenience overload reading from a file path; GraphError if absent. */
CsrGraph readMatrixMarketFile(const std::string& path,
                              bool with_weights = false);

/**
 * Write a graph as "matrix coordinate pattern symmetric": each undirected
 * pair (self-loops included) emitted once with 1-based indices.
 * readMatrixMarket reads it back as the same graph without its
 * self-loops.
 */
void writeMatrixMarket(std::ostream& out, const CsrGraph& g);

} // namespace gga

#endif // GGA_GRAPH_MTX_IO_HPP
