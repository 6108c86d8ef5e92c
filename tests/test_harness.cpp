/**
 * @file
 * Tests for the harness layer: workload registry, sweeps (BEST/PRED
 * selection), and cross-configuration result invariants on a scaled
 * workload.
 */

#include <gtest/gtest.h>

#include "harness/figures.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"

namespace gga {
namespace {

TEST(Workloads, RegistryHasAll36)
{
    const auto wls = allWorkloads();
    EXPECT_EQ(wls.size(), 36u);
    EXPECT_EQ(wls.front().name(), "PR-AMZ");
    EXPECT_EQ(wls.back().name(), "CC-WNG");
    std::uint32_t dynamic = 0;
    for (const Workload& w : wls)
        dynamic += w.dynamic();
    EXPECT_EQ(dynamic, 6u); // the CC row
}

TEST(Workloads, BaselineConfigs)
{
    EXPECT_EQ(baselineConfig({AppId::Pr, GraphPreset::Amz}).name(), "TG0");
    EXPECT_EQ(baselineConfig({AppId::Cc, GraphPreset::Amz}).name(), "DG1");
}

TEST(Sweep, FindsBestAndIncludesPrediction)
{
    // MIS on RAJ, the smallest input, at the GGA_SCALE evaluation scale
    // across the figure configs.
    const Workload wl{AppId::Mis, GraphPreset::Raj};
    SessionOptions opts;
    opts.scale = evaluationScale();
    Session session(opts);
    const SweepResult sweep =
        submitSweep(session, wl, figureConfigs(false)).collect();
    ASSERT_GE(sweep.results.size(), 5u);
    // BEST really is the minimum.
    for (const ConfigResult& r : sweep.results)
        EXPECT_GE(r.run.cycles, sweep.bestCycles);
    // The prediction was simulated too.
    EXPECT_NE(sweep.find(sweep.predicted), nullptr);
    EXPECT_EQ(sweep.find(sweep.predicted)->run.cycles,
              sweep.predictedCycles);
    // Baseline present.
    EXPECT_NE(sweep.find(parseConfig("TG0")), nullptr);
}

TEST(Figures, BreakdownCellsArePercentages)
{
    RunResult r;
    r.cycles = 200;
    r.breakdown.busy = 50;
    r.breakdown.data = 150;
    const auto cells = breakdownCells(r, 100.0);
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0], "2.000"); // normalized
    EXPECT_EQ(cells[1], "25.0%");
    EXPECT_EQ(cells[3], "75.0%");
}

} // namespace
} // namespace gga
