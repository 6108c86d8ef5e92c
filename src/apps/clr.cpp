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

#include "api/registry.hpp"
#include "apps/kernel_util.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace gga {

namespace {

struct ClrState
{
    ClrState(Gpu& gpu, const CsrGraph& graph, std::uint64_t seed_)
        : g(graph),
          seed(seed_),
          gb(gpu.mem(), graph),
          color(gpu.mem(), graph.numVertices(), "clr.color"),
          pri(gpu.mem(), graph.numVertices(), "clr.pri"),
          nbrMax(gpu.mem(), graph.numVertices(), "clr.nbrMax"),
          lb(gpu.params().lineBytes)
    {
    }

    const CsrGraph& g;
    std::uint64_t seed;
    GraphBuffers gb;
    DeviceBuffer<std::uint32_t> color;
    DeviceBuffer<std::uint32_t> pri;
    DeviceBuffer<std::uint32_t> nbrMax;
    std::uint32_t lb;
    std::uint32_t round = 0;
};

/**
 * Unique deterministic 32-bit priority (hash above, id below). @p seed
 * perturbs the hashed bits only; seed 0 reproduces the unseeded runs.
 */
std::uint32_t
priorityOf(VertexId v, VertexId n, std::uint64_t seed)
{
    std::uint32_t id_bits = 1;
    while ((1u << id_bits) < n)
        ++id_bits;
    return (static_cast<std::uint32_t>(hashMix64(v ^ 0x636c72ull ^ seed))
            << id_bits) |
           v;
}

WarpTask
clrInit(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.color[v] = kInfDist;
        st.pri[v] = priorityOf(v, st.g.numVertices(), st.seed);
        st.nbrMax[v] = 0;
    }
    AddrSet wr;
    kutil::addRange(wr, st.color, v0, lanes, st.lb);
    kutil::addRange(wr, st.pri, v0, lanes, st.lb);
    kutil::addRange(wr, st.nbrMax, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
clrReset(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes, st.lb);
    co_await w.load(rd);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.color[v] == kInfDist) {
            st.nbrMax[v] = 0;
            kutil::addElem(wr, st.nbrMax, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
clrPropPush(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes, st.lb);
    kutil::addRange(rd, st.pri, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    bool active[32];
    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.color[v0 + l] == kInfDist;
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }
    AddrSet el, words;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        words.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v))
                kutil::addElem(el, st.gb.col, st.g.edgeBegin(v) + j, st.lb);
        }
        co_await w.load(el);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId t = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                st.nbrMax[t] = std::max(st.nbrMax[t], st.pri[v]);
                words.pushUnique(kutil::wordOf(st.nbrMax, t));
            }
        }
        co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
clrPropPull(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    bool active[32];
    std::uint32_t acc[32] = {};
    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.color[v0 + l] == kInfDist;
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }
    AddrSet el, cl;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        cl.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v))
                kutil::addElem(el, st.gb.col, st.g.edgeBegin(v) + j, st.lb);
        }
        co_await w.load(el);
        // color[s] and pri[s] are independent loads off the same index;
        // the kernel issues them as one gather (compiler-scheduled ILP).
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId s = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                kutil::addElem(cl, st.color, s, st.lb);
                kutil::addElem(cl, st.pri, s, st.lb);
            }
        }
        co_await w.load(cl);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId s = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                if (st.color[s] == kInfDist)
                    acc[l] = std::max(acc[l], st.pri[s]);
            }
        }
        co_await w.compute(1);
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (active[l]) {
            st.nbrMax[v] = acc[l];
            kutil::addElem(wr, st.nbrMax, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
clrAssign(Warp& w, ClrState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.color, v0, lanes, st.lb);
    kutil::addRange(rd, st.pri, v0, lanes, st.lb);
    kutil::addRange(rd, st.nbrMax, v0, lanes, st.lb);
    co_await w.load(rd);
    co_await w.compute(1);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.color[v] == kInfDist && st.pri[v] > st.nbrMax[v]) {
            st.color[v] = st.round;
            kutil::addElem(wr, st.color, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

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

    gpu.launch("clr.init", n, [&st](Warp& w) { return clrInit(w, st); });
    for (st.round = 1; st.round <= kMaxSweeps; ++st.round) {
        gpu.launch("clr.reset", n,
                   [&st](Warp& w) { return clrReset(w, st); });
        if (push)
            gpu.launch("clr.prop.push", n,
                       [&st](Warp& w) { return clrPropPush(w, st); });
        else
            gpu.launch("clr.prop.pull", n,
                       [&st](Warp& w) { return clrPropPull(w, st); });
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

} // namespace

void
registerClrApp(AppRegistry& reg)
{
    reg.add({.id = AppId::Clr,
             .name = appName(AppId::Clr),
             .properties = algoProperties(AppId::Clr),
             .run = &runClr});
}

} // namespace gga
