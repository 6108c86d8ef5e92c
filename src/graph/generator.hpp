/**
 * @file
 * Parametric synthetic graph generator.
 *
 * The paper evaluates six SuiteSparse graphs. Those inputs are proprietary
 * to reproduce bit-for-bit, so GGA-Sim synthesizes stand-ins whose
 * *taxonomy-relevant* structure matches the published Table II rows:
 * exact |V| and |E| (hence the Volume metric to three decimals), degree
 * distribution shape (max/avg/stddev), intra-thread-block locality (ANL/ANR,
 * hence Reuse), and the distribution of high-degree vertices across thread
 * blocks (hence Imbalance).
 *
 * Two topology families cover all six inputs:
 *  - DegreeDriven: configuration-model-style synthesis with a target degree
 *    distribution, locality-controlled partner selection, optional
 *    random-ancestor backbone (connectivity + low diameter), and controlled
 *    hub placement (degree-sorted order with a tunable number of hubs
 *    scattered into random thread blocks).
 *  - Grid2d: a rows x cols 4-neighbour mesh (plus pendant vertices to hit an
 *    exact |V|) with optionally permuted labels — the FEM-mesh-like "wing"
 *    input.
 *
 * After synthesis the undirected pair set is trimmed/padded to the exact
 * target |E| so the working-set Volume metric matches the paper exactly.
 */

#ifndef GGA_GRAPH_GENERATOR_HPP
#define GGA_GRAPH_GENERATOR_HPP

#include <cstdint>
#include <string>

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace gga {

/** Degree-distribution family for DegreeDriven synthesis. */
enum class DegreeDist
{
    Regular,   ///< constant degree p1
    LogNormal, ///< exp(N(p1, p2^2))
    PowerLaw,  ///< P(d) ~ d^-p1 with d >= p2 (p2 = minimum degree)
};

/** Topology family. */
enum class Topology
{
    DegreeDriven,
    Grid2d,
};

/** Full recipe for one synthetic graph. */
struct GenSpec
{
    std::string name = "anon";
    Topology topology = Topology::DegreeDriven;

    VertexId numVertices = 0;
    /** Exact directed edge count after trim/pad; must be even. */
    EdgeId numDirectedEdges = 0;

    // --- DegreeDriven parameters ---
    DegreeDist dist = DegreeDist::LogNormal;
    double p1 = 1.0; ///< mu (LogNormal), alpha (PowerLaw), degree (Regular)
    double p2 = 0.5; ///< sigma (LogNormal), min degree (PowerLaw)
    std::uint32_t maxDegree = 64;

    /** Probability a generated edge stays within the source's 256-block. */
    double fracIntraBlock = 0.0;
    /** Probability a generated edge lands within +-bandWidth of the source. */
    double fracBand = 0.0;
    std::uint32_t bandWidth = 1024;

    /**
     * Hub placement. Vertices are ordered by descending target degree
     * (clustered hubs, low Imbalance). fullShuffle randomizes the whole
     * order (scattered hubs, high Imbalance). Otherwise scatterHubCount
     * vertices from the top hubPoolSize slots are swapped with random slots
     * (tunable medium Imbalance).
     */
    bool fullShuffle = false;
    std::uint32_t scatterHubCount = 0;
    std::uint32_t hubPoolSize = 512;

    /** Random-ancestor spanning backbone (connectivity, ~log diameter). */
    bool backbone = true;
    /**
     * When nonzero, backbone ancestors are drawn within this index band
     * below the vertex instead of uniformly, keeping the backbone
     * band-local (diameter ~ |V|/band) and its children spread evenly.
     */
    std::uint32_t backboneBand = 0;

    /**
     * Overwrite the top target-degree slots with a geometric ramp from
     * maxDegree (decay 0.72, 16 slots) so the published maximum degree is
     * actually realized; forced slots initiate their full degree.
     */
    bool forceTopDegrees = false;

    // --- Grid2d parameters ---
    std::uint32_t gridRows = 0;
    std::uint32_t gridCols = 0;
    /** Randomly permute vertex labels (destroys index locality). */
    bool permuteLabels = false;

    std::uint64_t seed = 1;
    std::uint32_t blockSize = 256;
};

/**
 * Synthesize the graph described by @p spec.
 *
 * Deterministic for a fixed spec (seed included) at every
 * @p build_threads value: synthesis decomposes over fixed vertex blocks
 * and hash shards with counter-based per-owner RNG streams (SplitRng),
 * and the CSR construction is canonical, so the output is byte-identical
 * whether it runs on 1 thread or 8. 0 = defaultThreads(). The
 * result is directed symmetric with no self-loops and exactly
 * spec.numDirectedEdges edges, with deterministic per-pair weights
 * attached.
 */
CsrGraph generateGraph(const GenSpec& spec, unsigned build_threads = 0);

/**
 * Version of the synthesis algorithm, folded into specContentHash. Bump
 * whenever a change alters any generated graph so content-addressed
 * snapshot caches (GraphStore / .csrbin files) can never serve a graph
 * the current code would not synthesize.
 *
 * v2: parallel deterministic synthesis — per-vertex/per-block SplitRng
 * streams, alias-table partner sampling, sharded dedup, merge-time
 * degree caps. Every degree-driven graph changed vs v1.
 */
inline constexpr std::uint64_t kGeneratorVersion = 2;

/**
 * Content hash of every generation-relevant GenSpec field (the name is
 * excluded) chained with kGeneratorVersion — the identity under which
 * snapshot files are addressed.
 */
std::uint64_t specContentHash(const GenSpec& spec);

} // namespace gga

#endif // GGA_GRAPH_GENERATOR_HPP
