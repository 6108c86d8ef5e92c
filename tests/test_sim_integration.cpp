/**
 * @file
 * Integration tests of the SIMT execution layer: kernels on the full Gpu
 * with coroutine warps — issue accounting, barriers, consistency-model
 * timing relationships, and breakdown conservation.
 */

#include <gtest/gtest.h>

#include "apps/kernel_util.hpp"
#include "sim/gpu.hpp"
#include "sim/warp.hpp"

namespace gga {
namespace {

/** Kernel: every warp does `n` dependent compute ops. */
WarpTask
computeKernel(Warp& w, std::uint32_t n)
{
    for (std::uint32_t i = 0; i < n; ++i)
        co_await w.compute(4);
}

/** Kernel: each warp loads one line derived from its id. */
WarpTask
loadKernel(Warp& w, DeviceBuffer<std::uint32_t>& buf)
{
    AddrSet lines;
    kutil::addElem(lines, buf, w.globalWarpId() % buf.size());
    co_await w.load(lines);
}

/** Kernel: `n` fire-and-forget atomics to distinct words per warp. */
WarpTask
atomicKernel(Warp& w, DeviceBuffer<std::uint32_t>& buf, std::uint32_t n)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        AddrSet words;
        words.pushUnique(
            kutil::wordOf(buf, (w.globalWarpId() * 131 + i) % buf.size()));
        co_await w.atomic(words, /*needs_value=*/false);
    }
}

/** Kernel: barrier between two compute phases, recording phase times. */
WarpTask
barrierKernel(Warp& w, std::vector<Cycles>& after_barrier, Engine& eng)
{
    co_await w.compute(10 * (1 + w.globalWarpId() % 8));
    co_await w.barrier();
    after_barrier.push_back(eng.now());
    co_await w.compute(1);
}

TEST(SimIntegration, BreakdownTotalsMatchWallTime)
{
    Gpu gpu(SimParams{}, CoherenceKind::Gpu, ConsistencyKind::Drf0);
    gpu.launch("compute", 2048,
               [](Warp& w) { return computeKernel(w, 8); });
    const StallBreakdown b = gpu.totalBreakdown();
    const double expected =
        static_cast<double>(gpu.now()) * SimParams::numSms;
    EXPECT_NEAR(b.total(), expected, expected * 0.01);
    EXPECT_GT(b.busy, 0.0);
    EXPECT_GT(b.comp, 0.0);
}

TEST(SimIntegration, LoadsProduceDataStalls)
{
    Gpu gpu(SimParams{}, CoherenceKind::Gpu, ConsistencyKind::Drf0);
    DeviceBuffer<std::uint32_t> buf(gpu.mem(), 4096);
    gpu.launch("loads", 2048,
               [&buf](Warp& w) { return loadKernel(w, buf); });
    EXPECT_GT(gpu.totalBreakdown().data, 0.0);
    EXPECT_GT(gpu.memStats().l1LoadMisses, 0u);
}

TEST(SimIntegration, BarrierReleasesAllWarpsTogether)
{
    Gpu gpu(SimParams{}, CoherenceKind::Gpu, ConsistencyKind::Drf0);
    std::vector<Cycles> after;
    gpu.launch("barrier", 256, [&](Warp& w) {
        return barrierKernel(w, after, gpu.engine());
    });
    ASSERT_EQ(after.size(), 8u); // one thread block => 8 warps
    for (Cycles t : after)
        EXPECT_EQ(t, after.front());
    EXPECT_GT(gpu.totalBreakdown().sync, 0.0);
}

TEST(SimIntegration, MultipleKernelsAccumulate)
{
    Gpu gpu(SimParams{}, CoherenceKind::Gpu, ConsistencyKind::Drf1);
    gpu.launch("a", 512, [](Warp& w) { return computeKernel(w, 2); });
    const Cycles after_first = gpu.now();
    gpu.launch("b", 512, [](Warp& w) { return computeKernel(w, 2); });
    EXPECT_GT(gpu.now(), after_first);
    EXPECT_EQ(gpu.kernelsLaunched(), 2u);
}

struct ConsistencyTiming : ::testing::TestWithParam<int>
{
};

/** DRF0 > DRF1 > DRFrlx for an atomic-heavy kernel (GPU coherence). */
TEST(SimIntegration, ConsistencyOrderingOnAtomicKernel)
{
    Cycles cycles[3];
    int i = 0;
    for (ConsistencyKind con : {ConsistencyKind::Drf0, ConsistencyKind::Drf1,
                                ConsistencyKind::DrfRlx}) {
        Gpu gpu(SimParams{}, CoherenceKind::Gpu, con);
        DeviceBuffer<std::uint32_t> buf(gpu.mem(), 1 << 14);
        gpu.launch("atomics", 1024, [&buf](Warp& w) {
            return atomicKernel(w, buf, 32);
        });
        cycles[i++] = gpu.now();
    }
    EXPECT_GT(cycles[0], cycles[1]); // DRF0 pays flush/invalidate + order
    EXPECT_GT(cycles[1], cycles[2]); // DRF1 pays atomic ordering
}

TEST(SimIntegration, DeNovoAtomicReuseBeatsGpuAtomics)
{
    // All warps hammer a small set of words repeatedly from one SM wave
    // (256 threads are one block, on SM 0): DeNovo executes them at the
    // L1 after one registration.
    Cycles gpu_cycles = 0, denovo_cycles = 0;
    for (CoherenceKind coh : {CoherenceKind::Gpu, CoherenceKind::DeNovo}) {
        Gpu gpu(SimParams{}, coh, ConsistencyKind::Drf1);
        DeviceBuffer<std::uint32_t> buf(gpu.mem(), 64);
        gpu.launch("hot-atomics", 256, [&buf](Warp& w) {
            return atomicKernel(w, buf, 64);
        });
        (coh == CoherenceKind::Gpu ? gpu_cycles : denovo_cycles) =
            gpu.now();
    }
    EXPECT_LT(denovo_cycles, gpu_cycles);
}

TEST(SimIntegration, RelaxedWindowBoundsOutstanding)
{
    // With a window of 1, DRFrlx behaves like DRF1 on atomic chains.
    SimParams p1;
    p1.relaxedAtomicWindow = 1;
    Gpu rlx1(p1, CoherenceKind::Gpu, ConsistencyKind::DrfRlx);
    DeviceBuffer<std::uint32_t> b1(rlx1.mem(), 1 << 14);
    rlx1.launch("a", 1024,
                [&b1](Warp& w) { return atomicKernel(w, b1, 16); });

    Gpu drf1(SimParams{}, CoherenceKind::Gpu, ConsistencyKind::Drf1);
    DeviceBuffer<std::uint32_t> b2(drf1.mem(), 1 << 14);
    drf1.launch("a", 1024,
                [&b2](Warp& w) { return atomicKernel(w, b2, 16); });

    const double ratio =
        static_cast<double>(rlx1.now()) / static_cast<double>(drf1.now());
    EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(SimIntegration, KernelEndDrainsStoreBuffers)
{
    Gpu gpu(SimParams{}, CoherenceKind::DeNovo, ConsistencyKind::DrfRlx);
    DeviceBuffer<std::uint32_t> buf(gpu.mem(), 1 << 14);
    gpu.launch("atomics", 2048,
               [&buf](Warp& w) { return atomicKernel(w, buf, 8); });
    for (std::uint32_t s = 0; s < SimParams::numSms; ++s) {
        EXPECT_TRUE(gpu.l1(s).storeBuffer().empty());
        EXPECT_EQ(gpu.l1(s).pendingStoreFills(), 0u);
    }
}

} // namespace
} // namespace gga
