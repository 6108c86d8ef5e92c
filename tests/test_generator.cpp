/**
 * @file
 * Unit tests for the synthetic graph generator: exact counts,
 * determinism, degree caps, grid topology, connectivity, scaling.
 */

#include <queue>

#include <gtest/gtest.h>

#include "graph/degree_stats.hpp"
#include "graph/generator.hpp"
#include "graph/presets.hpp"

namespace gga {
namespace {

GenSpec
basicSpec()
{
    GenSpec s;
    s.name = "t";
    s.numVertices = 2000;
    s.numDirectedEdges = 12000;
    s.dist = DegreeDist::LogNormal;
    s.p1 = 1.5;
    s.p2 = 0.7;
    s.maxDegree = 64;
    s.fracIntraBlock = 0.4;
    s.seed = 5;
    return s;
}

/** Count vertices reachable from 0. */
VertexId
reachable(const CsrGraph& g)
{
    std::vector<char> seen(g.numVertices(), 0);
    std::queue<VertexId> q;
    q.push(0);
    seen[0] = 1;
    VertexId count = 1;
    while (!q.empty()) {
        const VertexId v = q.front();
        q.pop();
        for (VertexId t : g.neighbors(v)) {
            if (!seen[t]) {
                seen[t] = 1;
                ++count;
                q.push(t);
            }
        }
    }
    return count;
}

TEST(Generator, ExactCountsAndCanonicalForm)
{
    const CsrGraph g = generateGraph(basicSpec());
    EXPECT_EQ(g.numVertices(), 2000u);
    EXPECT_EQ(g.numEdges(), 12000u);
    EXPECT_TRUE(g.isSymmetric());
    EXPECT_TRUE(g.hasNoSelfLoops());
    EXPECT_TRUE(g.hasWeights());
}

TEST(Generator, Deterministic)
{
    const CsrGraph a = generateGraph(basicSpec());
    const CsrGraph b = generateGraph(basicSpec());
    EXPECT_EQ(a, b);
    GenSpec other = basicSpec();
    other.seed = 6;
    const CsrGraph c = generateGraph(other);
    EXPECT_FALSE(a == c);
}

TEST(Generator, BuildThreadCountCannotChangeTheGraph)
{
    // The parallel CSR construction must be invisible in the output:
    // same spec, any thread count, bit-identical arrays (determinism
    // goldens and snapshot caches both depend on it). Big enough that
    // the builder really fans out (~80k pairs vs its ~16k-edges-per-
    // worker minimum slice).
    GenSpec spec = basicSpec();
    spec.numVertices = 20000;
    spec.numDirectedEdges = 160000;
    const CsrGraph serial = generateGraph(spec, 1);
    for (const unsigned threads : {2u, 4u, 8u})
        EXPECT_EQ(generateGraph(spec, threads), serial)
            << threads << " threads";
    // And the scaled-preset path, which the GraphStore builds through.
    EXPECT_EQ(buildPresetScaled(GraphPreset::Dct, 0.5, 1),
              buildPresetScaled(GraphPreset::Dct, 0.5, 4));
    // A full-scale preset spans many synthesis blocks (13 for DCT), so
    // the per-block stub streams and the sharded merge really interleave
    // differently across thread counts.
    EXPECT_EQ(buildPresetScaled(GraphPreset::Dct, 1.0, 1),
              buildPresetScaled(GraphPreset::Dct, 1.0, 8));
}

TEST(Generator, PresetDegreeStatsTrackTableII)
{
    // The taxonomy *classes* are the hard constraint (test_taxonomy);
    // these looser bands on the raw Table II degree columns catch
    // degenerate synthesis early — a pad-dominated (near-uniform) output
    // fails the stddev floor, a lost hub mechanism fails the maxDegree
    // floor — with enough slack that legitimate generator retuning
    // stays green.
    for (GraphPreset p : kAllGraphPresets) {
        const CsrGraph g = buildPresetScaled(p, 1.0);
        const DegreeStats ds = computeDegreeStats(g);
        const PaperGraphStats& t = paperStats(p);
        EXPECT_NEAR(ds.avgDegree, t.avgDegree, 0.02 * t.avgDegree)
            << presetName(p);
        EXPECT_GE(ds.maxDegree, t.maxDegree / 2) << presetName(p);
        EXPECT_LE(ds.maxDegree, t.maxDegree + t.maxDegree / 2)
            << presetName(p);
        EXPECT_GE(ds.stddevDegree, t.stddevDegree / 3.0) << presetName(p);
        EXPECT_LE(ds.stddevDegree, t.stddevDegree * 3.0) << presetName(p);
    }
}

TEST(Generator, SpecContentHashSeparatesSpecs)
{
    const GenSpec base = basicSpec();
    GenSpec renamed = base;
    renamed.name = "different-label";
    EXPECT_EQ(specContentHash(base), specContentHash(renamed))
        << "the name is a label, not content";
    GenSpec reseeded = base;
    reseeded.seed = 6;
    EXPECT_NE(specContentHash(base), specContentHash(reseeded));
    GenSpec reshaped = base;
    reshaped.p2 = 0.71;
    EXPECT_NE(specContentHash(base), specContentHash(reshaped));
}

TEST(Generator, BackboneConnects)
{
    const CsrGraph g = generateGraph(basicSpec());
    EXPECT_EQ(reachable(g), g.numVertices());
}

TEST(Generator, LocalityKnobMovesAnl)
{
    GenSpec local = basicSpec();
    local.fracIntraBlock = 0.8;
    GenSpec remote = basicSpec();
    remote.fracIntraBlock = 0.0;
    const CsrGraph gl = generateGraph(local);
    const CsrGraph gr = generateGraph(remote);

    auto anl_fraction = [](const CsrGraph& g) {
        std::uint64_t local_edges = 0;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            for (VertexId t : g.neighbors(v))
                local_edges += (v / 256 == t / 256);
        }
        return double(local_edges) / g.numEdges();
    };
    EXPECT_GT(anl_fraction(gl), anl_fraction(gr) + 0.3);
}

TEST(Generator, ForcedTopDegreesReachMax)
{
    GenSpec s = basicSpec();
    s.maxDegree = 400;
    s.forceTopDegrees = true;
    const CsrGraph g = generateGraph(s);
    const DegreeStats ds = computeDegreeStats(g);
    EXPECT_GT(ds.maxDegree, 250u);
    EXPECT_LE(ds.maxDegree, 400u);
}

TEST(Generator, Grid2dStructure)
{
    GenSpec s;
    s.name = "grid";
    s.topology = Topology::Grid2d;
    s.gridRows = 20;
    s.gridCols = 20;
    s.numVertices = 405; // 5 pendants
    s.numDirectedEdges = 2 * (2 * 20 * 19 + 5) - 6;
    s.permuteLabels = false;
    s.seed = 3;
    const CsrGraph g = generateGraph(s);
    EXPECT_EQ(g.numVertices(), 405u);
    EXPECT_EQ(g.numEdges(), s.numDirectedEdges);
    const DegreeStats ds = computeDegreeStats(g);
    EXPECT_LE(ds.maxDegree, 4u);
    EXPECT_EQ(reachable(g), g.numVertices());
}

TEST(Generator, ScaledPresetsKeepStructure)
{
    for (GraphPreset p : kAllGraphPresets) {
        const CsrGraph g = buildPresetScaled(p, 0.05);
        EXPECT_GT(g.numVertices(), 64u) << presetName(p);
        EXPECT_TRUE(g.isSymmetric()) << presetName(p);
        EXPECT_TRUE(g.hasNoSelfLoops()) << presetName(p);
    }
}

TEST(Generator, RejectsOddEdgeTarget)
{
    GenSpec s = basicSpec();
    s.numDirectedEdges = 12001;
    EXPECT_DEATH(generateGraph(s), "even");
}

TEST(Generator, UnreachableEdgeTargetThrows)
{
    // At 1e-4, DCT's protected pairs alone exceed its edge target. A
    // served unit must fail on that, so it is an exception, not a fatal.
    EXPECT_THROW(buildPresetScaled(GraphPreset::Dct, 1e-4), GraphError);
}

TEST(Generator, SynthesisErrorMatchesGenerationAtEachPresetsEdge)
{
    // Walk each preset up the 1e-5 scale grid to its first buildable
    // scale by the spec-only check; generation must agree on both sides
    // of that edge. The edges: AMZ 2e-5, DCT 7.1e-4, EML 1.5e-4, OLS
    // 1.9e-4, RAJ 7.7e-4; WNG builds at every scale.
    for (GraphPreset p : kAllGraphPresets) {
        int k = 1;
        while (k < 1000 &&
               synthesisError(presetSpecScaled(p, k * 1e-5)).has_value())
            ++k;
        ASSERT_LT(k, 1000) << presetName(p);
        const GenSpec ok = presetSpecScaled(p, k * 1e-5);
        EXPECT_NO_THROW(generateGraph(ok, 1)) << presetName(p) << " @ " << k;
        if (k == 1)
            continue;
        const GenSpec bad = presetSpecScaled(p, (k - 1) * 1e-5);
        const std::optional<std::string> why = synthesisError(bad);
        ASSERT_TRUE(why.has_value());
        EXPECT_NE(why->find("backbone needs"), std::string::npos) << *why;
        try {
            generateGraph(bad, 1);
            ADD_FAILURE() << presetName(p) << " @ " << k - 1 << " built";
        } catch (const GraphError& err) {
            EXPECT_EQ(std::string(err.what()),
                      "cannot synthesize graph " + presetName(p) + ": " +
                          *why);
        }
    }
}

} // namespace
} // namespace gga
