#include "apps/app.hpp"

#include "support/log.hpp"

namespace gga {

GraphBuffers::GraphBuffers(AddressSpace& space, const CsrGraph& g)
    : rowOff(space, g.rowOffsets()),
      col(space, g.colIndices()),
      weight(space, g.weights())
{
}

RunResult
collectResult(Gpu& gpu)
{
    RunResult r;
    r.cycles = gpu.now();
    r.breakdown = gpu.totalBreakdown();
    r.mem = gpu.memStats();
    r.kernels = gpu.kernelsLaunched();
    r.events = gpu.engine().processedEvents();
    return r;
}

RunResult
runApp(AppId app, const CsrGraph& g, const SystemConfig& cfg,
       const SimParams& params, std::uint64_t seed, AppOutput* out)
{
    switch (app) {
      case AppId::Pr:
        return runPr(g, cfg, params, seed, out);
      case AppId::Sssp:
        return runSssp(g, cfg, params, seed, out);
      case AppId::Mis:
        return runMis(g, cfg, params, seed, out);
      case AppId::Clr:
        return runClr(g, cfg, params, seed, out);
      case AppId::Bc:
        return runBc(g, cfg, params, seed, out);
      case AppId::Cc:
        return runCc(g, cfg, params, seed, out);
    }
    GGA_FATAL("unknown application ", static_cast<int>(app));
}

} // namespace gga
