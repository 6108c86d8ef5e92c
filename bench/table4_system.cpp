/**
 * @file
 * Reproduces the paper's Table IV: simulated system parameters, including
 * the derived latency ranges (L2 hit, remote L1, memory) produced by the
 * mesh/bank/DRAM models.
 *
 * Usage: table4_system [--csv]
 */

#include <cstring>
#include <iostream>

#include "sim/dram.hpp"
#include "sim/noc.hpp"
#include "sim/params.hpp"
#include "support/table.hpp"

int
main(int argc, char** argv)
{
    const bool csv = argc > 1 && !std::strcmp(argv[1], "--csv");
    const gga::SimParams p;

    // Derived latency ranges over all SM/bank placements.
    gga::Cycles l2_min = ~0ull, l2_max = 0;
    gga::Cycles rl1_min = ~0ull, rl1_max = 0;
    for (std::uint32_t sm = 0; sm < p.numSms; ++sm) {
        for (std::uint32_t bank = 0; bank < p.l2Banks; ++bank) {
            const gga::Cycles l2 = gga::meshLatency(sm, bank) +
                                   p.l2BankLatency +
                                   gga::meshLatency(bank, sm);
            l2_min = std::min(l2_min, l2);
            l2_max = std::max(l2_max, l2);
            for (std::uint32_t owner = 0; owner < p.numSms; ++owner) {
                if (owner == sm)
                    continue;
                const gga::Cycles fwd =
                    gga::meshLatency(sm, bank) + p.l2BankLatency +
                    gga::meshLatency(bank, owner) + p.l1HitLatency +
                    gga::meshLatency(owner, sm);
                rl1_min = std::min(rl1_min, fwd);
                rl1_max = std::max(rl1_max, fwd);
            }
        }
    }
    const gga::Cycles mem_min = l2_min + p.dramLatency;
    const gga::Cycles mem_max = l2_max + p.dramLatency;

    auto range = [](gga::Cycles lo, gga::Cycles hi) {
        return std::to_string(lo) + "-" + std::to_string(hi) + " cycles";
    };

    gga::TextTable table;
    table.setHeader({"Parameter", "Value", "Paper"});
    table.addRow({"GPU CUs (SMs)", std::to_string(p.numSms), "15"});
    table.addRow({"L1 size", std::to_string(p.l1SizeKiB) + " KB, " +
                                 std::to_string(p.l1Assoc) + "-way",
                  "32 KB, 8-way"});
    table.addRow({"L2 size", std::to_string(p.l2SizeKiB / 1024) + " MB, " +
                                 std::to_string(p.l2Banks) +
                                 " banks (NUCA)",
                  "4 MB, 16 banks"});
    table.addRow({"Store buffer", std::to_string(p.storeBufferEntries) +
                                      " entries",
                  "128 entries"});
    table.addRow({"L1 MSHRs", std::to_string(p.l1Mshrs) + " entries",
                  "128 entries"});
    table.addRow({"L1 hit latency", std::to_string(p.l1HitLatency) +
                                        " cycle",
                  "1 cycle"});
    table.addRow({"Remote L1 hit latency", range(rl1_min, rl1_max),
                  "35-83 cycles"});
    table.addRow({"L2 hit latency", range(l2_min, l2_max), "29-61 cycles"});
    table.addRow({"Memory latency", range(mem_min, mem_max),
                  "197-261 cycles"});

    std::cout << "Table IV: simulated heterogeneous system parameters\n\n";
    std::cout << (csv ? table.toCsv() : table.toText());
    return 0;
}
