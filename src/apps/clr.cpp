/**
 * @file
 * Graph coloring (paper: CLR). Static traversal; symmetric control;
 * target information (the accumulating neighborhood state sits at the
 * target, which pull hoists).
 *
 * Jones-Plassmann-style rounds with unique hashed priorities: in round r,
 * every uncolored vertex whose priority exceeds all uncolored neighbors'
 * takes color r.
 */

#include "apps/app.hpp"
#include "apps/kernel_util.hpp"
#include "apps/nbr_max.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

/** Sets CLR's priorities apart from MIS's on the same seed. */
constexpr std::uint64_t kPrioritySalt = 0x636c72;

struct ClrState
{
    ClrState(Gpu& gpu, const CsrGraph& graph, std::uint64_t seed)
        : g(graph),
          salt(kPrioritySalt ^ seed),
          gb(gpu.mem(), graph),
          color(gpu.mem(), graph.numVertices()),
          pri(gpu.mem(), graph.numVertices()),
          nbrMax(gpu.mem(), graph.numVertices())
    {
    }

    const CsrGraph& g;
    std::uint64_t salt;
    GraphBuffers gb;
    DeviceBuffer<std::uint32_t> color;
    DeviceBuffer<std::uint32_t> pri;
    DeviceBuffer<std::uint32_t> nbrMax;
    std::uint32_t round = 0;
};

WarpTask
clrInit(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.color[v] = kInfDist;
        st.pri[v] = priorityOf(v, st.g.numVertices(), st.salt);
        st.nbrMax[v] = 0;
    }
    AddrSet wr;
    kutil::addRange(wr, st.color, v0, lanes);
    kutil::addRange(wr, st.pri, v0, lanes);
    kutil::addRange(wr, st.nbrMax, v0, lanes);
    co_await w.store(wr);
}

WarpTask
clrAssign(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes);
    kutil::addRange(rd, st.pri, v0, lanes);
    kutil::addRange(rd, st.nbrMax, v0, lanes);
    co_await w.load(rd);
    co_await w.compute(1);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.color[v] == kInfDist && st.pri[v] > st.nbrMax[v]) {
            st.color[v] = st.round;
            kutil::addElem(wr, st.color, v);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

} // namespace

RunResult
runClr(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
       std::uint64_t seed, AppOutput* out)
{
    GGA_ASSERT(cfg.prop != UpdateProp::PushPull,
               "CLR has a static traversal: use Push or Pull");
    Gpu gpu(params, cfg.coh, cfg.con);
    ClrState st(gpu, g, seed);
    const VertexId n = g.numVertices();
    const bool push = cfg.prop == UpdateProp::Push;

    const NbrMaxView nbr{"clr", g, st.gb, st.color, kInfDist,
                         st.pri, st.nbrMax};
    gpu.launch("clr.init", n, [&st](Warp& w) { return clrInit(w, st); });
    for (st.round = 1; st.round <= kMaxSweeps; ++st.round) {
        launchNbrMaxRound(gpu, nbr, push);
        gpu.launch("clr.assign", n,
                   [&st](Warp& w) { return clrAssign(w, st); });
        bool uncolored = false;
        for (VertexId v = 0; v < n && !uncolored; ++v)
            uncolored = st.color[v] == kInfDist;
        if (!uncolored)
            break;
    }

    if (out)
        *out = ClrOutput{std::move(st.color.host())};
    return collectResult(gpu);
}

} // namespace gga
