#include "harness/workloads.hpp"

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "api/graph_store.hpp"
#include "support/log.hpp"
#include "support/parse.hpp"

namespace gga {

std::vector<Workload>
allWorkloads()
{
    std::vector<Workload> out;
    for (AppId app : kAllApps) {
        for (GraphPreset g : kAllGraphPresets)
            out.push_back({app, g});
    }
    return out;
}

double
evaluationScale()
{
    static const double scale = [] {
        const char* env = std::getenv("GGA_SCALE");
        if (!env)
            return 1.0;
        const double s = parseScale("GGA_SCALE", env);
        if (s < 1.0)
            GGA_WARN("GGA_SCALE=", s, ": inputs are scaled down; results "
                     "are not the paper-sized evaluation");
        return s;
    }();
    return scale;
}

} // namespace gga
