#include "sim/gpu.hpp"

#include "support/log.hpp"

namespace gga {

Gpu::Gpu(const SimParams& params, CoherenceKind coh, ConsistencyKind con)
{
    params.validate();
    l2_ = std::make_unique<L2System>(engine_, dram_);
    l2_->setRecallHandler([this](std::uint32_t sm_id, Addr line) {
        l1s_[sm_id]->onRecall(line);
    });
    const ConsistencySpec spec = makeConsistencySpec(con, params);
    for (std::uint32_t s = 0; s < SimParams::numSms; ++s) {
        l1s_.push_back(std::make_unique<L1Controller>(
            engine_, params.l1SizeKiB, coh, s, *l2_));
        sms_.push_back(std::make_unique<SmCore>(engine_, *l1s_[s], spec));
        sms_[s]->setBlockCompleteHandler(
            [this, s](std::uint32_t) { onBlockComplete(s); });
    }
}

Gpu::~Gpu() = default;

void
Gpu::fillSm(SmCore& sm)
{
    while (sm.residentBlocks() < SimParams::maxBlocksPerSm &&
           nextBlock_ < numBlocks_) {
        const std::uint32_t block = nextBlock_++;
        const std::uint32_t first = block * SimParams::threadBlockSize;
        const std::uint32_t count =
            std::min(SimParams::threadBlockSize, gridThreads_ - first);
        sm.startBlock(block, first, count, *currentFactory_);
    }
}

void
Gpu::dispatchBlocks()
{
    // Greedy refill: hand pending blocks to any SM with a free slot.
    for (std::uint32_t s = 0; s < SimParams::numSms && nextBlock_ < numBlocks_;
         ++s)
        fillSm(*sms_[s]);
}

void
Gpu::onBlockComplete(std::uint32_t sm_id)
{
    ++blocksDone_;
    fillSm(*sms_[sm_id]);
}

void
Gpu::launch(const std::string& name, std::uint32_t num_threads,
            const WarpFactory& make_warp)
{
    GGA_ASSERT(num_threads > 0, "kernel '", name, "' with zero threads");
    ++kernelsLaunched_;

    currentFactory_ = &make_warp;
    gridThreads_ = num_threads;
    numBlocks_ = (num_threads + SimParams::threadBlockSize - 1) /
                 SimParams::threadBlockSize;
    nextBlock_ = 0;
    blocksDone_ = 0;

    l2_->beginKernel();
    for (auto& l1 : l1s_)
        l1->beginKernel();

    // Kernel-entry acquire: flash self-invalidation on every SM (DeNovo
    // keeps owned lines). State change is immediate; the latency is part
    // of the launch overhead.
    for (auto& l1 : l1s_)
        l1->acquireInvalidate([] {});

    engine_.schedule(SimParams::kernelLaunchOverhead,
                     [this] { dispatchBlocks(); });
    engine_.run();

    GGA_ASSERT(blocksDone_ == numBlocks_, "kernel '", name,
               "' finished with pending blocks");

    // Kernel-exit release: GPU coherence flushes dirty lines; both
    // protocols drain outstanding stores/atomics. Attribute this window
    // to Sync on each SM, then align every SM to the global end (Idle).
    const Cycles warps_done = engine_.now();
    std::uint32_t flushes_left = SimParams::numSms;
    for (std::uint32_t s = 0; s < SimParams::numSms; ++s) {
        sms_[s]->accounting().catchUp(warps_done);
        l1s_[s]->releaseFlush([this, s, warps_done, &flushes_left] {
            sms_[s]->accounting().accountExplicit(WaitCat::Sync, warps_done,
                                                  engine_.now());
            --flushes_left;
        });
    }
    engine_.run();
    GGA_ASSERT(flushes_left == 0, "kernel-end flush incomplete");

    const Cycles kernel_end = engine_.now();
    for (auto& sm : sms_) {
        sm->accounting().catchUp(kernel_end);
        sm->clearKernelState();
    }
    currentFactory_ = nullptr;
}

StallBreakdown
Gpu::totalBreakdown() const
{
    StallBreakdown total;
    for (const auto& sm : sms_)
        total += sm->accounting().breakdown();
    return total;
}

MemStats
Gpu::memStats() const
{
    MemStats m;
    for (const auto& l1 : l1s_) {
        const L1Stats& s = l1->stats();
        m.l1LoadHits += s.loadHits;
        m.l1LoadMisses += s.loadMisses;
        m.l1Stores += s.stores;
        m.l1AtomicHits += s.atomicL1Hits;
        m.ownershipRequests += s.ownershipRequests;
        m.flushedLines += s.flushedLines;
        m.acquireInvalidatedLines += s.acquireInvalidatedLines;
        m.recalls += s.recalls;
        m.l1Retries += s.retries;
    }
    const L2Stats& l2s = l2_->stats();
    m.l2Atomics = l2s.atomics;
    m.l2Reads = l2s.reads;
    m.l2ReadMisses = l2s.readMisses;
    m.l2Writes = l2s.writes;
    m.ownershipForwards = l2s.forwards;
    m.l2ReadLagSum = l2s.readLagSum;
    m.l2AtomicLagSum = l2s.atomicLagSum;
    m.dramReads = dram_.reads();
    m.dramWrites = dram_.writes();
    return m;
}

} // namespace gga
