/**
 * @file
 * Shared banked NUCA L2 with a DeNovo ownership directory and per-bank
 * atomic units.
 *
 * GPU coherence executes atomics here (per-word serialization at the home
 * bank). DeNovo registers L1 ownership here and forwards requests to the
 * current owner (the "remote L1 hit" path). The directory is perfect
 * (never evicted) — a common idealization; capacity effects are modeled
 * for data lines only.
 */

#ifndef GGA_SIM_L2_HPP
#define GGA_SIM_L2_HPP

#include <array>
#include <cstdint>
#include <optional>

#include "sim/cache.hpp"
#include "sim/dram.hpp"
#include "sim/engine.hpp"
#include "sim/noc.hpp"
#include "sim/params.hpp"
#include "support/flat_map.hpp"
#include "support/inline_function.hpp"
#include "support/types.hpp"

namespace gga {

/** Counters exposed by the L2 for tests and benches. */
struct L2Stats
{
    std::uint64_t reads = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writes = 0;
    std::uint64_t atomics = 0;       ///< GPU-coherence L2 atomics
    std::uint64_t getO = 0;          ///< DeNovo ownership registrations
    std::uint64_t forwards = 0;      ///< owner-to-requester transfers
    std::uint64_t ownerWritebacks = 0;
    // Latency accounting (sum of response-minus-request cycles).
    std::uint64_t readLagSum = 0;
    std::uint64_t atomicLagSum = 0;
};

/**
 * The entire shared memory side: 16 L2 banks on the mesh, the DeNovo
 * directory, and DRAM behind them. All completion callbacks are delivered
 * through the engine at the time the response reaches the requesting SM.
 */
class L2System
{
  public:
    L2System(Engine& engine, const SimParams& params, const MeshNoc& noc,
             Dram& dram);

    /** Handler invoked when an L1 must drop ownership of a line. */
    using RecallFn = InlineFunction<void(std::uint32_t sm_id, Addr line), 48>;
    void setRecallHandler(RecallFn fn) { recall_ = std::move(fn); }

    /** Fetch a line for reading (GetV). Forwards from a remote owner. */
    void read(std::uint32_t sm_id, Addr line, EventFn done);

    /** Write a full line (GPU write-through flush / L2-bound data). */
    void write(std::uint32_t sm_id, Addr line, EventFn done);

    /** Execute one atomic word operation at the home bank (GPU). */
    void atomic(std::uint32_t sm_id, Addr word, EventFn done);

    /** Register ownership of a line to @p sm_id (DeNovo GetO). */
    void getOwnership(std::uint32_t sm_id, Addr line, EventFn done);

    /** Owner evicted the line: write back data, clear registration. */
    void releaseOwnership(std::uint32_t sm_id, Addr line);

    /** Current registered owner of a line, if any (tests/diagnostics). */
    std::optional<std::uint32_t> ownerOf(Addr line) const;

    /** Clear per-kernel ephemeral serialization state. */
    void beginKernel();

    const L2Stats& stats() const { return stats_; }

  private:
    struct Bank
    {
        Cycles nextFree = 0;
        /** Dedicated atomic-unit pipeline beside the data port. */
        Cycles atomicNextFree = 0;
        SetAssocCache tags{SimParams::l2SizeKiB * 1024 / SimParams::l2Banks,
                           SimParams::l2Assoc, SimParams::lineBytes};
        /** Per-word serialization of atomics at this bank's atomic unit. */
        FlatMap<Addr, Cycles> wordNextFree;
        /** Per-line serialization of ownership handoffs. */
        FlatMap<Addr, Cycles> ownershipNextFree;
    };

    std::uint32_t bankOf(Addr line) const;

    /** Occupy the bank and return the service start time. */
    Cycles occupyBank(Bank& bank, Cycles arrival, Cycles interval);

    /**
     * Time at which the line's data is available at the bank (tag hit or
     * DRAM fill, inserting and handling L2 evictions). The fetch launches
     * at @p arrival; the result also waits for @p service_start.
     */
    Cycles dataReady(Bank& bank, Addr line, Cycles arrival,
                     Cycles service_start, LineState on_fill);

    /**
     * Full-line write into the bank: mark the line dirty, or allocate it
     * dirty with no fetch; a dirty victim's write-back leaves at
     * @p service_start plus the bank latency.
     */
    void writeDirty(Bank& bank, Addr line, Cycles service_start);

    Engine& engine_;
    const SimParams& params_;
    const MeshNoc& noc_;
    Dram& dram_;
    /** Depart through the SM's NoC injection port (bandwidth model). */
    Cycles smPortDepart(std::uint32_t sm_id, Cycles extra = 0);

    std::array<Bank, SimParams::l2Banks> banks_;
    std::array<Cycles, SimParams::numSms> smPortFree_{};
    /** DeNovo registration directory: line -> owning SM. */
    FlatMap<Addr, std::uint32_t> owner_;
    RecallFn recall_;
    L2Stats stats_;
};

} // namespace gga

#endif // GGA_SIM_L2_HPP
