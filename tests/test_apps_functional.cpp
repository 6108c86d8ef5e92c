/**
 * @file
 * Functional validation: every application, on small graphs, across the
 * full configuration space, must produce results matching the sequential
 * CPU references (exactly for discrete outputs, within tolerance for
 * floating-point ones).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "apps/reference.hpp"
#include "graph/generator.hpp"
#include "graph/presets.hpp"
#include "model/config.hpp"
#include "support/log.hpp"

namespace gga {
namespace {

const CsrGraph&
smallGraph()
{
    static const CsrGraph g = [] {
        GenSpec spec;
        spec.name = "small";
        spec.numVertices = 800;
        spec.numDirectedEdges = 4000;
        spec.dist = DegreeDist::PowerLaw;
        spec.p1 = 2.3;
        spec.p2 = 1.5;
        spec.maxDegree = 64;
        spec.fracIntraBlock = 0.3;
        spec.seed = 99;
        return generateGraph(spec);
    }();
    return g;
}

/** Run @p app on the small graph under @p config, collecting outputs. */
RunOutcome
runSmall(AppId app, const std::string& config)
{
    return Session().run(
        RunPlan{}.app(app).graph(smallGraph(), "small").config(config));
}

class AllConfigs : public ::testing::TestWithParam<std::string>
{
};

class DynConfigs : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllConfigs, PrMatchesReference)
{
    const CsrGraph& g = smallGraph();
    const RunOutcome out = runSmall(AppId::Pr, GetParam());
    ASSERT_NE(out.pr(), nullptr);
    const std::vector<float>& ranks = out.pr()->ranks;
    const std::vector<double> expect = ref::pagerank(g, kPrIterations);
    ASSERT_EQ(ranks.size(), expect.size());
    for (std::size_t v = 0; v < ranks.size(); ++v) {
        EXPECT_NEAR(ranks[v], expect[v],
                    std::max(1e-6, 1e-3 * expect[v]))
            << "vertex " << v;
    }
}

TEST_P(AllConfigs, SsspMatchesDijkstra)
{
    const RunOutcome out = runSmall(AppId::Sssp, GetParam());
    ASSERT_NE(out.sssp(), nullptr);
    ASSERT_EQ(out.sssp()->dist, ref::dijkstra(smallGraph(), 0));
}

TEST_P(AllConfigs, MisIsValidAndConfigInvariant)
{
    const RunOutcome out = runSmall(AppId::Mis, GetParam());
    ASSERT_NE(out.mis(), nullptr);
    EXPECT_TRUE(ref::validMis(smallGraph(), out.mis()->state));

    // The round structure is deterministic, so every configuration must
    // produce the identical set.
    const RunOutcome baseline = runSmall(AppId::Mis, "TG0");
    ASSERT_NE(baseline.mis(), nullptr);
    EXPECT_EQ(out.mis()->state, baseline.mis()->state);
}

TEST_P(AllConfigs, ClrIsProperColoring)
{
    const RunOutcome out = runSmall(AppId::Clr, GetParam());
    ASSERT_NE(out.clr(), nullptr);
    EXPECT_TRUE(ref::validColoring(smallGraph(), out.clr()->colors));
}

TEST_P(AllConfigs, BcMatchesBrandes)
{
    const RunOutcome out = runSmall(AppId::Bc, GetParam());
    ASSERT_NE(out.bc(), nullptr);
    const BcOutput& bc = *out.bc();
    const ref::BcRef expect = ref::brandes(smallGraph(), 0);
    ASSERT_EQ(bc.level, expect.level);
    ASSERT_EQ(bc.sigma.size(), expect.sigma.size());
    ASSERT_EQ(bc.delta.size(), expect.delta.size());
    for (std::size_t v = 0; v < bc.delta.size(); ++v) {
        EXPECT_NEAR(bc.sigma[v], expect.sigma[v],
                    1e-9 + 1e-9 * expect.sigma[v])
            << "sigma of vertex " << v;
        EXPECT_NEAR(bc.delta[v], expect.delta[v],
                    1e-9 + 1e-9 * std::abs(expect.delta[v]))
            << "delta of vertex " << v;
    }
}

TEST_P(DynConfigs, CcMatchesUnionFind)
{
    const RunOutcome out = runSmall(AppId::Cc, GetParam());
    ASSERT_NE(out.cc(), nullptr);
    EXPECT_TRUE(
        ref::samePartition(out.cc()->labels, ref::components(smallGraph())));
}

INSTANTIATE_TEST_SUITE_P(DesignSpace, AllConfigs,
                         ::testing::Values("TG0", "TG1", "TGR", "TD0", "TD1",
                                           "TDR", "SG0", "SG1", "SGR", "SD0",
                                           "SD1", "SDR"));

INSTANTIATE_TEST_SUITE_P(DesignSpace, DynConfigs,
                         ::testing::Values("DG0", "DG1", "DGR", "DD0", "DD1",
                                           "DDR"));

} // namespace
} // namespace gga
