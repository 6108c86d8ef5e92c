/**
 * @file
 * Reproduces the paper's Table III: the algorithmic properties (traversal,
 * control, information) of the six applications, plus the size of each
 * app's valid configuration space under acceptsConfig.
 *
 * Usage: table3_algo_props [--csv]
 */

#include <cstring>
#include <iostream>

#include <algorithm>

#include "model/algo_props.hpp"
#include "support/table.hpp"

int
main(int argc, char** argv)
{
    const bool csv = argc > 1 && !std::strcmp(argv[1], "--csv");

    // All 18 raw design points; acceptsConfig selects each app's valid
    // subset (12 static / 6 dynamic).
    std::vector<gga::SystemConfig> candidates = gga::allConfigs(false);
    for (const gga::SystemConfig& c : gga::allConfigs(true))
        candidates.push_back(c);

    gga::TextTable table;
    table.setHeader({"App", "Traversal", "Control", "Information",
                     "ValidConfigs"});
    for (const gga::AppId app : gga::kAllApps) {
        const gga::AlgoProperties& p = gga::algoProperties(app);
        const auto valid = std::count_if(
            candidates.begin(), candidates.end(),
            [app](const gga::SystemConfig& c) {
                return gga::acceptsConfig(app, c);
            });
        table.addRow({gga::appName(app), gga::traversalLabel(p.traversal),
                      gga::preferenceLabel(p.control),
                      gga::preferenceLabel(p.information),
                      std::to_string(valid)});
    }
    std::cout << "Table III: algorithmic properties per application\n\n";
    std::cout << (csv ? table.toCsv() : table.toText());
    return 0;
}
