/**
 * @file
 * Betweenness centrality pieces for one source (paper: BC). Static
 * traversal; source control (frontier predicate); symmetric information.
 *
 * Level-synchronous forward BFS computing shortest-path counts (sigma),
 * then backward dependency accumulation (delta). Push uses atomicAdds
 * into sigma / the backward accumulator; pull gathers from neighbors.
 */

#include "api/registry.hpp"
#include "apps/kernel_util.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

struct BcState
{
    BcState(Gpu& gpu, const CsrGraph& graph)
        : g(graph),
          gb(gpu.mem(), graph),
          level(gpu.mem(), graph.numVertices(), "bc.level"),
          sigma(gpu.mem(), graph.numVertices(), "bc.sigma"),
          delta(gpu.mem(), graph.numVertices(), "bc.delta"),
          acc(gpu.mem(), graph.numVertices(), "bc.acc"),
          lb(gpu.params().lineBytes)
    {
    }

    const CsrGraph& g;
    GraphBuffers gb;
    DeviceBuffer<std::uint32_t> level;
    DeviceBuffer<double> sigma;
    DeviceBuffer<double> delta;
    DeviceBuffer<double> acc;
    std::uint32_t lb;
    std::uint32_t curLevel = 0;
};

WarpTask
bcInit(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.level[v] = kInfDist;
        st.sigma[v] = 0.0;
        st.delta[v] = 0.0;
        st.acc[v] = 0.0;
    }
    AddrSet wr;
    kutil::addRange(wr, st.level, v0, lanes, st.lb);
    kutil::addRange(wr, st.sigma, v0, lanes, st.lb);
    co_await w.store(wr);
    wr.clear();
    kutil::addRange(wr, st.delta, v0, lanes, st.lb);
    kutil::addRange(wr, st.acc, v0, lanes, st.lb);
    co_await w.store(wr);
}

WarpTask
bcSeed(Warp& w, BcState& st)
{
    st.level[0] = 0;
    st.sigma[0] = 1.0;
    AddrSet wr;
    kutil::addElem(wr, st.level, 0, st.lb);
    kutil::addElem(wr, st.sigma, 0, st.lb);
    co_await w.store(wr);
}

WarpTask
bcFwdPush(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    co_await w.load(rd);

    bool active[32];
    bool any = false;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.level[v0 + l] == lv;
        any |= active[l];
    }
    if (!any)
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.sigma, v0, lanes, st.lb);
    co_await w.load(rd);

    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }
    AddrSet el, ll, words, newly;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        ll.clear();
        words.clear();
        newly.clear();
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
                kutil::addElem(ll, st.level, t, st.lb);
            }
        }
        // Target-level gather: the tpred cost BC's push cannot avoid.
        co_await w.load(ll);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId t = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                if (st.level[t] == kInfDist) {
                    st.level[t] = lv + 1; // benign same-value race
                    kutil::addElem(newly, st.level, t, st.lb);
                }
                if (st.level[t] == lv + 1) {
                    st.sigma[t] += st.sigma[v];
                    words.pushUnique(kutil::wordOf(st.sigma, t));
                }
            }
        }
        if (!words.empty())
            co_await w.atomic(words, /*needs_value=*/false);
        if (!newly.empty())
            co_await w.store(newly);
    }
}

WarpTask
bcFwdPull(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    co_await w.load(rd);

    bool active[32];
    double acc[32] = {};
    bool found[32] = {};
    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.level[v0 + l] == kInfDist;
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }
    if (maxd == 0)
        co_return;

    AddrSet el, ll, sl;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        ll.clear();
        sl.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v))
                kutil::addElem(el, st.gb.col, st.g.edgeBegin(v) + j, st.lb);
        }
        co_await w.load(el);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId s = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                kutil::addElem(ll, st.level, s, st.lb);
            }
        }
        co_await w.load(ll);
        bool any = false;
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId s = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                if (st.level[s] == lv) {
                    kutil::addElem(sl, st.sigma, s, st.lb);
                    any = true;
                }
            }
        }
        if (any) {
            co_await w.load(sl);
            for (std::uint32_t l = 0; l < lanes; ++l) {
                const VertexId v = v0 + l;
                if (active[l] && j < st.g.degree(v)) {
                    const VertexId s =
                        st.g.edgeTarget(st.g.edgeBegin(v) + j);
                    if (st.level[s] == lv) {
                        acc[l] += st.sigma[s];
                        found[l] = true;
                    }
                }
            }
            co_await w.compute(1);
        }
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (found[l]) {
            st.level[v] = lv + 1;
            st.sigma[v] = acc[l];
            kutil::addElem(wr, st.level, v, st.lb);
            kutil::addElem(wr, st.sigma, v, st.lb);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
bcBwdPush(Warp& w, BcState& st)
{
    // Sources are the deeper vertices (level == curLevel + 1); they push
    // (1 + delta)/sigma into the accumulators of their predecessors.
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    co_await w.load(rd);

    bool active[32];
    bool any = false;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.level[v0 + l] == lv + 1;
        any |= active[l];
    }
    if (!any)
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.sigma, v0, lanes, st.lb);
    kutil::addRange(rd, st.delta, v0, lanes, st.lb);
    co_await w.load(rd);

    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }
    AddrSet el, ll, words;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        ll.clear();
        words.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId u = v0 + l;
            if (active[l] && j < st.g.degree(u))
                kutil::addElem(el, st.gb.col, st.g.edgeBegin(u) + j, st.lb);
        }
        co_await w.load(el);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId u = v0 + l;
            if (active[l] && j < st.g.degree(u)) {
                const VertexId t = st.g.edgeTarget(st.g.edgeBegin(u) + j);
                kutil::addElem(ll, st.level, t, st.lb);
            }
        }
        co_await w.load(ll);
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId u = v0 + l;
            if (active[l] && j < st.g.degree(u)) {
                const VertexId t = st.g.edgeTarget(st.g.edgeBegin(u) + j);
                if (st.level[t] == lv && st.sigma[u] > 0.0) {
                    st.acc[t] += (1.0 + st.delta[u]) / st.sigma[u];
                    words.pushUnique(kutil::wordOf(st.acc, t));
                }
            }
        }
        if (!words.empty())
            co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
bcBwdFinalize(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;
    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    co_await w.load(rd);
    bool active[32];
    bool any = false;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.level[v0 + l] == lv;
        any |= active[l];
    }
    if (!any)
        co_return;
    rd.clear();
    kutil::addRange(rd, st.acc, v0, lanes, st.lb);
    kutil::addRange(rd, st.sigma, v0, lanes, st.lb);
    co_await w.load(rd);
    co_await w.compute(2);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (active[l]) {
            st.delta[v] = st.sigma[v] * st.acc[v];
            kutil::addElem(wr, st.delta, v, st.lb);
        }
    }
    co_await w.store(wr);
}

WarpTask
bcBwdPull(Warp& w, BcState& st)
{
    // Predecessors (level == curLevel) gather from their successors.
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes, st.lb);
    co_await w.load(rd);

    bool active[32];
    bool any = false;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        active[l] = st.level[v0 + l] == lv;
        any |= active[l];
    }
    if (!any)
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1, st.lb);
    kutil::addRange(rd, st.sigma, v0, lanes, st.lb);
    co_await w.load(rd);

    std::uint32_t maxd = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (active[l])
            maxd = std::max(maxd, st.g.degree(v0 + l));
    }
    double acc[32] = {};
    AddrSet el, ll, sl;
    for (std::uint32_t j = 0; j < maxd; ++j) {
        el.clear();
        ll.clear();
        sl.clear();
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
                kutil::addElem(ll, st.level, t, st.lb);
            }
        }
        co_await w.load(ll);
        bool hit = false;
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0 + l;
            if (active[l] && j < st.g.degree(v)) {
                const VertexId t = st.g.edgeTarget(st.g.edgeBegin(v) + j);
                if (st.level[t] == lv + 1) {
                    kutil::addElem(sl, st.sigma, t, st.lb);
                    kutil::addElem(sl, st.delta, t, st.lb);
                    hit = true;
                }
            }
        }
        if (hit) {
            co_await w.load(sl);
            for (std::uint32_t l = 0; l < lanes; ++l) {
                const VertexId v = v0 + l;
                if (active[l] && j < st.g.degree(v)) {
                    const VertexId t =
                        st.g.edgeTarget(st.g.edgeBegin(v) + j);
                    if (st.level[t] == lv + 1 && st.sigma[t] > 0.0)
                        acc[l] += (1.0 + st.delta[t]) / st.sigma[t];
                }
            }
            co_await w.compute(1);
        }
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (active[l]) {
            st.delta[v] = st.sigma[v] * acc[l];
            kutil::addElem(wr, st.delta, v, st.lb);
        }
    }
    co_await w.store(wr);
}

RunResult
runBc(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
      std::uint64_t /*seed: the source is fixed*/, AppOutput* out)
{
    GGA_ASSERT(cfg.prop != UpdateProp::PushPull,
               "BC has a static traversal: use Push or Pull");
    Gpu gpu(params, cfg.coh, cfg.con);
    BcState st(gpu, g);
    const VertexId n = g.numVertices();
    const bool push = cfg.prop == UpdateProp::Push;

    gpu.launch("bc.init", n, [&st](Warp& w) { return bcInit(w, st); });
    gpu.launch("bc.seed", 1, [&st](Warp& w) { return bcSeed(w, st); });

    // Forward BFS.
    std::uint32_t max_level = 0;
    for (st.curLevel = 0; st.curLevel < kMaxSweeps; ++st.curLevel) {
        if (push)
            gpu.launch("bc.fwd.push", n,
                       [&st](Warp& w) { return bcFwdPush(w, st); });
        else
            gpu.launch("bc.fwd.pull", n,
                       [&st](Warp& w) { return bcFwdPull(w, st); });
        bool frontier = false;
        for (VertexId v = 0; v < n && !frontier; ++v)
            frontier = st.level[v] == st.curLevel + 1;
        if (!frontier) {
            max_level = st.curLevel;
            break;
        }
    }

    // Backward dependency accumulation.
    for (std::uint32_t lv = max_level; lv-- > 0;) {
        st.curLevel = lv;
        if (push) {
            gpu.launch("bc.bwd.push", n,
                       [&st](Warp& w) { return bcBwdPush(w, st); });
            gpu.launch("bc.bwd.fin", n,
                       [&st](Warp& w) { return bcBwdFinalize(w, st); });
        } else {
            gpu.launch("bc.bwd.pull", n,
                       [&st](Warp& w) { return bcBwdPull(w, st); });
        }
    }

    if (out)
        *out = BcOutput{std::move(st.delta.host()),
                        std::move(st.level.host()),
                        std::move(st.sigma.host())};
    return collectResult(gpu);
}

} // namespace

void
registerBcApp(AppRegistry& reg)
{
    reg.add({.id = AppId::Bc,
             .name = appName(AppId::Bc),
             .properties = algoProperties(AppId::Bc),
             .run = &runBc});
}

} // namespace gga
