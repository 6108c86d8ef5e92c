/**
 * @file
 * Frozen graph-path baselines. Not part of the library: only the tests,
 * bench/graph_build and bench/micro_substrate (for reference/rng.hpp)
 * link the gga_reference target, the same way the binary-heap engine
 * lives only in bench/micro_substrate.
 *
 *  - generateGraphReference: generator v1, the measured baseline for
 *    bench/graph_build's synth_speedup column. test_graph pins its
 *    output by hash.
 *  - buildReferenceSort: the std::sort CSR construction, the oracle and
 *    baseline for GraphBuilder::build's counting construction
 *    (build_speedup).
 *
 * scripts/bench_gates.py graph gates the medians of both speedups.
 */

#ifndef GGA_REFERENCE_GRAPH_HPP
#define GGA_REFERENCE_GRAPH_HPP

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generator.hpp"

namespace gga {

/**
 * The frozen v1 synthesis path: one sequential Xoshiro stream feeding a
 * single global pair set, with a binary-search partner sampler. Not
 * content-addressed, never snapshot-cached, and its output differs from
 * generateGraph's.
 */
CsrGraph generateGraphReference(const GenSpec& spec,
                                unsigned build_threads = 1);

/**
 * Build @p builder's raw edges into the canonical CSR by the serial
 * path (pack pairs, std::sort, unique). Byte-identical to
 * builder.build(@p with_weights) at every thread count.
 */
CsrGraph buildReferenceSort(const GraphBuilder& builder, bool with_weights);

} // namespace gga

#endif // GGA_REFERENCE_GRAPH_HPP
