/**
 * @file
 * Functional validation: every application, on small graphs, across the
 * full configuration space, must produce results matching the sequential
 * CPU references (exactly for discrete outputs, within tolerance for
 * floating-point ones). The lock-step edge walk all kernels share is
 * pinned directly too: its visit order fixes the order each warp issues
 * lines in, and so every simulated count.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "apps/kernel_util.hpp"
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

// --- the lock-step edge walk ----------------------------------------------

/** One visit of an EdgeWalk. */
struct Visit
{
    std::uint32_t step;
    std::uint32_t lane;
    VertexId v;
    EdgeId e;
    VertexId nbr;

    bool operator==(const Visit&) const = default;
};

/** What the walk kernel saw in each warp, keyed by the warp's v0. */
struct WalkLog
{
    std::map<VertexId, std::uint32_t> steps;
    std::map<VertexId, std::vector<Visit>> visits;
    std::map<VertexId, std::vector<std::vector<Addr>>> colLines;
};

/** The walk's rules under test: lanes on multiples of 3 start inactive. */
bool
walkActive(VertexId v)
{
    return v % 3 != 0;
}

/** ...and a lane retires once it visits an odd neighbor. */
bool
walkRetires(VertexId nbr)
{
    return nbr % 2 == 1;
}

WarpTask
walkKernel(Warp& w, const CsrGraph& g, const GraphBuffers& gb, WalkLog& log)
{
    kutil::EdgeWalk walk(g, w, walkActive);
    const VertexId v0 = w.firstThread();
    log.steps[v0] = walk.steps();
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el;
        walk.gatherCol(el, gb.col, j);
        log.colLines[v0].emplace_back(el.begin(), el.end());
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            log.visits[v0].push_back({j, x.lane, x.v, x.e, x.nbr});
            if (walkRetires(x.nbr))
                walk.retire(x.lane);
        });
        co_await w.compute(1);
    }
}

TEST(EdgeWalk, VisitsLanesInOrderAndRetiresThem)
{
    // 36 vertices of degree v % 4 (0 to 3), adjacent to the next ones
    // around the ring: one full warp of 32 lanes and a partial one of 4.
    constexpr VertexId n = 36;
    std::vector<EdgeId> offsets{0};
    std::vector<VertexId> cols;
    for (VertexId v = 0; v < n; ++v) {
        std::vector<VertexId> row;
        for (VertexId k = 0; k < v % 4; ++k)
            row.push_back((v + 1 + k) % n);
        std::sort(row.begin(), row.end());
        cols.insert(cols.end(), row.begin(), row.end());
        offsets.push_back(static_cast<EdgeId>(cols.size()));
    }
    const CsrGraph g(std::move(offsets), std::move(cols));

    Gpu gpu(SimParams{}, CoherenceKind::Gpu, ConsistencyKind::Drf0);
    const GraphBuffers gb(gpu.mem(), g);
    WalkLog log;
    gpu.launch("walk", n,
               [&](Warp& w) { return walkKernel(w, g, gb, log); });
    ASSERT_EQ(log.steps.size(), 2u);

    // The partial warp, by hand. Lane 1 (v33) is inactive and lane 0
    // (v32) has no edges, so v34's two edges and v35's three set three
    // steps. Lanes visit in lane order; both retire at step 1 on odd
    // neighbors (35 and 1), so v35's third edge is never visited.
    const EdgeId e34 = g.edgeBegin(34);
    const EdgeId e35 = g.edgeBegin(35);
    EXPECT_EQ(log.steps[32], 3u);
    EXPECT_EQ(log.visits[32], (std::vector<Visit>{
                                  {0, 2, 34, e34, 0},
                                  {0, 3, 35, e35, 0},
                                  {1, 2, 34, e34 + 1, 35},
                                  {1, 3, 35, e35 + 1, 1},
                              }));

    // The full warp against the rule spelled out as a plain loop.
    std::vector<Visit> want;
    std::uint32_t steps = 0;
    for (VertexId v = 0; v < 32; ++v) {
        if (walkActive(v))
            steps = std::max(steps, g.degree(v));
    }
    std::vector<bool> retired(32, false);
    for (std::uint32_t j = 0; j < steps; ++j) {
        for (std::uint32_t l = 0; l < 32; ++l) {
            if (!walkActive(l) || retired[l] || j >= g.degree(l))
                continue;
            const EdgeId e = g.edgeBegin(l) + j;
            want.push_back({j, l, l, e, g.edgeTarget(e)});
            retired[l] = walkRetires(g.edgeTarget(e));
        }
    }
    EXPECT_EQ(log.steps[0], steps);
    EXPECT_EQ(log.visits[0], want);

    // Each step's column gather holds the col lines of that step's
    // visits, first occurrence first.
    for (const auto& [v0, visits] : log.visits) {
        std::vector<std::vector<Addr>> lines(log.steps[v0]);
        for (const Visit& x : visits) {
            const Addr line = lineOf(gb.col.addrOf(x.e));
            std::vector<Addr>& step = lines[x.step];
            if (std::find(step.begin(), step.end(), line) == step.end())
                step.push_back(line);
        }
        EXPECT_EQ(log.colLines[v0], lines) << "warp at " << v0;
    }
}

} // namespace
} // namespace gga
