/**
 * @file
 * Simulated system parameters (paper Table IV), in GPU core cycles.
 *
 * Latency ranges in the paper (remote L1 hit 35-83, L2 hit 29-61, memory
 * 197-261 cycles) arise here from the 4x4 mesh hop distances plus the fixed
 * bank/DRAM components below.
 */

#ifndef GGA_SIM_PARAMS_HPP
#define GGA_SIM_PARAMS_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "support/types.hpp"

namespace gga {

/**
 * Most lanes a warp may have. Kernels keep per-lane state in arrays of
 * this size and a 32-bit lane mask (kutil::EdgeWalk), and an AddrSet
 * holds two lines per lane.
 */
inline constexpr std::uint32_t kMaxWarpLanes = 32;

/** All tunable hardware parameters of the simulated CPU-GPU system. */
struct SimParams
{
    // --- GPU organization ---
    std::uint32_t numSms = 15;
    std::uint32_t warpSize = 32;
    std::uint32_t threadBlockSize = 256;
    /** Max thread blocks resident per SM (occupancy / TLP). */
    std::uint32_t maxBlocksPerSm = 6;

    // --- L1 (per SM) ---
    std::uint32_t lineBytes = 64;
    std::uint32_t l1SizeKiB = 32;
    std::uint32_t l1Assoc = 8;
    std::uint32_t l1Mshrs = 128;
    std::uint32_t storeBufferEntries = 128;
    Cycles l1HitLatency = 1;
    /** DeNovo: atomic executed on an owned line at the L1. */
    Cycles l1AtomicLatency = 10;
    /** DeNovo/L1: per-word serialization of local atomics. */
    Cycles l1AtomicServiceInterval = 2;
    /** Flash self-invalidation at acquires. */
    Cycles flashInvalidateLatency = 8;

    // --- L2 (shared, banked NUCA) ---
    std::uint32_t l2SizeKiB = 4096;
    std::uint32_t l2Banks = 16;
    std::uint32_t l2Assoc = 16;
    Cycles l2BankLatency = 28;
    /** Bank occupancy per data access. */
    Cycles l2ServiceInterval = 2;
    /** Bank occupancy and per-word serialization per L2 atomic. */
    Cycles atomicServiceInterval = 2;
    /** Bank occupancy of a DeNovo ownership registration (directory RMW). */
    Cycles directoryServiceInterval = 4;

    // --- NoC (4x4 mesh; SMs on nodes 0-14, one L2 bank per node) ---
    Cycles nocPerHopLatency = 3;
    Cycles nocRouterLatency = 1;
    /** SM NoC port occupancy per request/response message pair. */
    Cycles nocPortInterval = 2;

    // --- DRAM ---
    Cycles dramLatency = 170;
    std::uint32_t dramChannels = 16;
    Cycles dramServiceInterval = 4;

    // --- Consistency ---
    /** DRFrlx: max outstanding relaxed atomic instructions per warp. */
    std::uint32_t relaxedAtomicWindow = 64;

    // --- Host/kernel interface ---
    Cycles kernelLaunchOverhead = 500;

    /** Warps per thread block (derived). */
    std::uint32_t
    warpsPerBlock() const
    {
        return (threadBlockSize + warpSize - 1) / warpSize;
    }

    /**
     * Why the parameter combination is unusable, or nullopt when it is
     * fine: the checks that keep a run from asserting or exhausting host
     * memory part way through. Inputs from outside (work units, plans)
     * go through this before they run.
     */
    std::optional<std::string> check() const;

    /** Panic if check() finds the combination unusable. */
    void validate() const;

    /**
     * Field-wise equality (work units omit their params override when it
     * matches the default Table IV system).
     */
    bool operator==(const SimParams&) const = default;
};

} // namespace gga

#endif // GGA_SIM_PARAMS_HPP
