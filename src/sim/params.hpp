/**
 * @file
 * Simulated system parameters (paper Table IV), in GPU core cycles.
 *
 * The paper simulates one system and varies only update propagation,
 * coherence and consistency, so every Table IV value is a compile-time
 * constant: edit one here to simulate other hardware. Simulator and kernel
 * code reads each constant where it uses it (`SimParams::lineBytes`,
 * lineOf() below), never from a stored copy. Two values stay settable per
 * run because the ablations sweep them, the L1 size
 * (bench/ablation_l1_size) and the DRFrlx window
 * (bench/ablation_mlp_window); they are all a work unit, a manifest or an
 * HTTP plan may set, and check() refuses what of them cannot run. Only
 * Gpu's constructor reads them: it sizes the L1s and builds the
 * consistency rules.
 *
 * Latency ranges in the paper (remote L1 hit 35-83, L2 hit 29-61, memory
 * 197-261 cycles) arise here from the 4x4 mesh hop distances plus the fixed
 * bank/DRAM components below.
 */

#ifndef GGA_SIM_PARAMS_HPP
#define GGA_SIM_PARAMS_HPP

#include <bit>
#include <cstdint>
#include <optional>
#include <string>

#include "support/types.hpp"

namespace gga {

/** The simulated CPU-GPU system: Table IV plus the two swept values. */
struct SimParams
{
    // --- GPU organization ---
    static constexpr std::uint32_t numSms = 15;
    /**
     * Lanes per warp. Kernels keep per-lane state in arrays of this size
     * and a 32-bit lane mask (kutil::EdgeWalk), and an AddrSet holds two
     * lines per lane.
     */
    static constexpr std::uint32_t warpSize = 32;
    static constexpr std::uint32_t threadBlockSize = 256;
    /** Max thread blocks resident per SM (occupancy / TLP). */
    static constexpr std::uint32_t maxBlocksPerSm = 6;

    // --- L1 (per SM) ---
    static constexpr std::uint32_t lineBytes = 64;
    /** Settable: bench/ablation_l1_size sweeps it. */
    std::uint32_t l1SizeKiB = 32;
    static constexpr std::uint32_t l1Assoc = 8;
    static constexpr std::uint32_t l1Mshrs = 128;
    static constexpr std::uint32_t storeBufferEntries = 128;
    static constexpr Cycles l1HitLatency = 1;
    /** DeNovo: atomic executed on an owned line at the L1. */
    static constexpr Cycles l1AtomicLatency = 10;
    /** DeNovo/L1: per-word serialization of local atomics. */
    static constexpr Cycles l1AtomicServiceInterval = 2;
    /** Flash self-invalidation at acquires. */
    static constexpr Cycles flashInvalidateLatency = 8;

    // --- L2 (shared, banked NUCA) ---
    static constexpr std::uint32_t l2SizeKiB = 4096;
    static constexpr std::uint32_t l2Banks = 16;
    static constexpr std::uint32_t l2Assoc = 16;
    static constexpr Cycles l2BankLatency = 28;
    /** Bank occupancy per data access. */
    static constexpr Cycles l2ServiceInterval = 2;
    /** Bank occupancy and per-word serialization per L2 atomic. */
    static constexpr Cycles atomicServiceInterval = 2;
    /** Bank occupancy of a DeNovo ownership registration (directory RMW). */
    static constexpr Cycles directoryServiceInterval = 4;

    // --- NoC (4x4 mesh; SMs on nodes 0-14, one L2 bank per node) ---
    static constexpr Cycles nocPerHopLatency = 3;
    static constexpr Cycles nocRouterLatency = 1;
    /** SM NoC port occupancy per request/response message pair. */
    static constexpr Cycles nocPortInterval = 2;

    // --- DRAM ---
    static constexpr Cycles dramLatency = 170;
    static constexpr std::uint32_t dramChannels = 16;
    static constexpr Cycles dramServiceInterval = 4;

    // --- Consistency ---
    /**
     * Settable: DRFrlx's max outstanding relaxed atomic instructions per
     * warp; bench/ablation_mlp_window sweeps it.
     */
    std::uint32_t relaxedAtomicWindow = 64;

    // --- Host/kernel interface ---
    static constexpr Cycles kernelLaunchOverhead = 500;

    /**
     * Why the settable values cannot run, or nullopt when they can: the
     * checks that keep a run from asserting or exhausting host memory
     * part way through. Inputs from outside (work units, plans) go
     * through this before they run.
     */
    std::optional<std::string> check() const;

    /** Panic if check() finds the values unusable. */
    void validate() const;

    /**
     * Equality of the settable values (work units omit their params
     * override when it matches the default Table IV system).
     */
    bool operator==(const SimParams&) const = default;
};

// What the constants must satisfy for the models built on them.
static_assert(SimParams::numSms >= 1 && SimParams::numSms <= 15,
              "SMs sit on nodes 0-14 of the 4x4 mesh, the CPU on node 15");
static_assert(SimParams::l2Banks == 16,
              "the 4x4 mesh hosts one L2 bank per node");
static_assert(SimParams::threadBlockSize % SimParams::warpSize == 0,
              "a thread block is whole warps");
static_assert(std::has_single_bit(SimParams::lineBytes) &&
                  SimParams::lineBytes >= 4,
              "lines are a power of two of at least 4 bytes");
static_assert(std::has_single_bit(SimParams::dramChannels),
              "DRAM channels are picked by a mask");
static_assert(SimParams::l2SizeKiB * 1024 / SimParams::l2Banks /
                      SimParams::lineBytes % SimParams::l2Assoc == 0,
              "an L2 bank splits into whole sets");

/** Line address containing byte address @p a. */
constexpr Addr
lineOf(Addr a)
{
    return a & ~static_cast<Addr>(SimParams::lineBytes - 1);
}

} // namespace gga

#endif // GGA_SIM_PARAMS_HPP
