/**
 * @file
 * Unit tests for the taxonomy: k-means, Volume/Reuse/Imbalance formulas
 * (including checks against the paper's published Table II values), and
 * the classification thresholds.
 */

#include <gtest/gtest.h>

#include "api/graph_store.hpp"
#include "graph/builder.hpp"
#include "graph/presets.hpp"
#include "taxonomy/kmeans.hpp"
#include "taxonomy/profile.hpp"

namespace gga {
namespace {

TEST(KMeans, TwoObviousClusters)
{
    const std::vector<double> v{1, 2, 1, 2, 100, 99};
    const KMeans1dResult r = kmeans1d2(v);
    EXPECT_NEAR(r.lowCentroid, 1.5, 0.01);
    EXPECT_NEAR(r.highCentroid, 99.5, 0.01);
    EXPECT_GT(r.centroidGap, 90.0);
}

TEST(KMeans, UniformValuesHaveZeroGap)
{
    const std::vector<double> v{7, 7, 7, 7};
    EXPECT_DOUBLE_EQ(kmeans1d2(v).centroidGap, 0.0);
}

TEST(KMeans, DegenerateInputs)
{
    EXPECT_DOUBLE_EQ(kmeans1d2({}).centroidGap, 0.0);
    EXPECT_DOUBLE_EQ(kmeans1d2(std::vector<double>{5.0}).centroidGap, 0.0);
}

TEST(Volume, MatchesPaperFormula)
{
    // Eq. 1 with the published |V|,|E| must reproduce the printed KB for
    // every Table II row (4 bytes per element, 15 SMs).
    for (GraphPreset p : kAllGraphPresets) {
        const PaperGraphStats& s = paperStats(p);
        const double elems = double(s.vertices) + double(s.edges);
        const double kb = elems * 4 / 15 / 1024.0;
        // WNG's printed value (79.458) disagrees with its own V/E by
        // ~0.3 KB; all others match to the printed precision.
        if (p != GraphPreset::Wng) {
            EXPECT_NEAR(kb, s.volumeKb, 0.01) << presetName(p);
        }
    }
}

TEST(Volume, ClassThresholds)
{
    const std::uint32_t l1 = SimParams{}.l1SizeKiB;
    EXPECT_EQ(classifyVolume(47.9, l1), Level::Low);    // < 48
    EXPECT_EQ(classifyVolume(48.1, l1), Level::Medium);
    EXPECT_EQ(classifyVolume(273.0, l1), Level::Medium); // < 4096/15
    EXPECT_EQ(classifyVolume(274.0, l1), Level::High);
}

TEST(Reuse, RingInsideOneBlockIsFullyLocal)
{
    // 64 vertices in a ring, all within one 256-thread block.
    GraphBuilder b(64);
    for (VertexId v = 0; v < 64; ++v)
        b.addUndirected(v, (v + 1) % 64);
    const CsrGraph g = b.build();
    const ReuseMetrics m = computeReuse(g);
    EXPECT_DOUBLE_EQ(m.anr, 0.0);
    EXPECT_DOUBLE_EQ(m.anl, 2.0);
    EXPECT_DOUBLE_EQ(m.reuse, 1.0);
}

TEST(Reuse, CrossBlockBipartiteIsFullyRemote)
{
    // Vertices i and i+256 are paired: every edge crosses blocks.
    GraphBuilder b(512);
    for (VertexId v = 0; v < 256; ++v)
        b.addUndirected(v, v + 256);
    const CsrGraph g = b.build();
    const ReuseMetrics m = computeReuse(g);
    EXPECT_DOUBLE_EQ(m.anl, 0.0);
    EXPECT_DOUBLE_EQ(m.reuse, 0.0);
}

TEST(Reuse, AnlPlusAnrIsAverageDegree)
{
    const GraphStore::GraphPtr g = GraphStore::instance().get(GraphPreset::Dct);
    const ReuseMetrics m = computeReuse(*g);
    EXPECT_NEAR(m.anl + m.anr, g->avgDegree(), 1e-9);
}

TEST(Imbalance, UniformDegreesAreBalanced)
{
    GraphBuilder b(512);
    for (VertexId v = 0; v < 512; ++v)
        b.addUndirected(v, (v + 1) % 512);
    const CsrGraph g = b.build();
    EXPECT_DOUBLE_EQ(computeImbalance(g), 0.0);
}

TEST(Imbalance, OneHubPerBlockMarksAllBlocks)
{
    // Two blocks of 256; in each, vertex 0 of the block is a hub with
    // degree far above the k-means gap threshold.
    GraphBuilder b(512);
    for (VertexId v = 0; v < 512; ++v)
        b.addUndirected(v, (v + 1) % 512);
    for (VertexId t = 2; t < 100; ++t) {
        b.addUndirected(0, t);
        b.addUndirected(256, 256 + t);
    }
    const CsrGraph g = b.build();
    EXPECT_DOUBLE_EQ(computeImbalance(g), 1.0);
}

TEST(Imbalance, GapBelowThresholdNotMarked)
{
    // Hub degree only ~8 above the rest: below the 10-centroid-gap cut.
    GraphBuilder b(256);
    for (VertexId v = 0; v < 256; ++v)
        b.addUndirected(v, (v + 1) % 256);
    for (VertexId t = 2; t < 9; ++t)
        b.addUndirected(0, t);
    const CsrGraph g = b.build();
    EXPECT_DOUBLE_EQ(computeImbalance(g), 0.0);
}

TEST(Profile, PresetClassesMatchTableII)
{
    for (GraphPreset p : kAllGraphPresets) {
        const TaxonomyProfile prof =
            profileGraph(*GraphStore::instance().get(p));
        const PaperGraphStats& paper = paperStats(p);
        EXPECT_EQ(levelChar(prof.volume), paper.volumeClass)
            << presetName(p);
        EXPECT_EQ(levelChar(prof.reuseLevel), paper.reuseClass)
            << presetName(p);
        EXPECT_EQ(levelChar(prof.imbalanceLevel), paper.imbalanceClass)
            << presetName(p);
    }
}

TEST(Profile, PresetCountsAreExact)
{
    for (GraphPreset p : kAllGraphPresets) {
        const GraphStore::GraphPtr g = GraphStore::instance().get(p);
        const PaperGraphStats& paper = paperStats(p);
        EXPECT_EQ(g->numVertices(), paper.vertices) << presetName(p);
        EXPECT_EQ(g->numEdges(), paper.edges) << presetName(p);
        EXPECT_TRUE(g->isSymmetric()) << presetName(p);
        EXPECT_TRUE(g->hasNoSelfLoops()) << presetName(p);
    }
}

} // namespace
} // namespace gga
