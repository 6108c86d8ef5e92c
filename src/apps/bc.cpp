/**
 * @file
 * Betweenness centrality pieces for one source (paper: BC). Static
 * traversal; source control (frontier predicate); symmetric information.
 *
 * Level-synchronous forward BFS computing shortest-path counts (sigma),
 * then backward dependency accumulation (delta). Push uses atomicAdds
 * into sigma / the backward accumulator; pull gathers from neighbors.
 */

#include "apps/app.hpp"
#include "apps/kernel_util.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

struct BcState
{
    BcState(Gpu& gpu, const CsrGraph& graph)
        : g(graph),
          gb(gpu.mem(), graph),
          level(gpu.mem(), graph.numVertices()),
          sigma(gpu.mem(), graph.numVertices()),
          delta(gpu.mem(), graph.numVertices()),
          acc(gpu.mem(), graph.numVertices())
    {
    }

    const CsrGraph& g;
    GraphBuffers gb;
    DeviceBuffer<std::uint32_t> level;
    DeviceBuffer<double> sigma;
    DeviceBuffer<double> delta;
    DeviceBuffer<double> acc;
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
    kutil::addRange(wr, st.level, v0, lanes);
    kutil::addRange(wr, st.sigma, v0, lanes);
    co_await w.store(wr);
    wr.clear();
    kutil::addRange(wr, st.delta, v0, lanes);
    kutil::addRange(wr, st.acc, v0, lanes);
    co_await w.store(wr);
}

WarpTask
bcSeed(Warp& w, BcState& st)
{
    st.level[0] = 0;
    st.sigma[0] = 1.0;
    AddrSet wr;
    kutil::addElem(wr, st.level, 0);
    kutil::addElem(wr, st.sigma, 0);
    co_await w.store(wr);
}

WarpTask
bcFwdPush(Warp& w, BcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t lv = st.curLevel;

    AddrSet rd;
    kutil::addRange(rd, st.level, v0, lanes);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.level[v] == lv; });
    if (!walk.any())
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    kutil::addRange(rd, st.sigma, v0, lanes);
    co_await w.load(rd);

    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, ll, words, newly;
        walk.gatherCol(el, st.gb.col, j);
        co_await w.load(el);
        walk.gatherNbr(ll, st.level, j);
        // Target-level gather: the tpred cost BC's push cannot avoid.
        co_await w.load(ll);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.level[x.nbr] == kInfDist) {
                st.level[x.nbr] = lv + 1; // benign same-value race
                kutil::addElem(newly, st.level, x.nbr);
            }
            if (st.level[x.nbr] == lv + 1) {
                st.sigma[x.nbr] += st.sigma[x.v];
                words.pushUnique(kutil::wordOf(st.sigma, x.nbr));
            }
        });
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
    kutil::addRange(rd, st.level, v0, lanes);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.level[v] == kInfDist; });
    kutil::Lanes<double> acc{};
    kutil::Lanes<bool> found{};
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, ll, sl;
        walk.gatherCol(el, st.gb.col, j);
        co_await w.load(el);
        walk.gatherNbr(ll, st.level, j);
        co_await w.load(ll);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.level[x.nbr] == lv)
                kutil::addElem(sl, st.sigma, x.nbr);
        });
        if (sl.empty())
            continue;
        co_await w.load(sl);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.level[x.nbr] == lv) {
                acc[x.lane] += st.sigma[x.nbr];
                found[x.lane] = true;
            }
        });
        co_await w.compute(1);
    }
    AddrSet wr;
    walk.forEachLane([&](std::uint32_t l, VertexId v) {
        if (found[l]) {
            st.level[v] = lv + 1;
            st.sigma[v] = acc[l];
            kutil::addElem(wr, st.level, v);
            kutil::addElem(wr, st.sigma, v);
        }
    });
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
    kutil::addRange(rd, st.level, v0, lanes);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.level[v] == lv + 1; });
    if (!walk.any())
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    kutil::addRange(rd, st.sigma, v0, lanes);
    kutil::addRange(rd, st.delta, v0, lanes);
    co_await w.load(rd);

    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, ll, words;
        walk.gatherCol(el, st.gb.col, j);
        co_await w.load(el);
        walk.gatherNbr(ll, st.level, j);
        co_await w.load(ll);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.level[x.nbr] == lv && st.sigma[x.v] > 0.0) {
                st.acc[x.nbr] += (1.0 + st.delta[x.v]) / st.sigma[x.v];
                words.pushUnique(kutil::wordOf(st.acc, x.nbr));
            }
        });
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
    kutil::addRange(rd, st.level, v0, lanes);
    co_await w.load(rd);
    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.level[v] == lv; });
    if (!walk.any())
        co_return;
    rd.clear();
    kutil::addRange(rd, st.acc, v0, lanes);
    kutil::addRange(rd, st.sigma, v0, lanes);
    co_await w.load(rd);
    co_await w.compute(2);
    AddrSet wr;
    walk.forEachLane([&](std::uint32_t, VertexId v) {
        st.delta[v] = st.sigma[v] * st.acc[v];
        kutil::addElem(wr, st.delta, v);
    });
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
    kutil::addRange(rd, st.level, v0, lanes);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.level[v] == lv; });
    if (!walk.any())
        co_return;

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    kutil::addRange(rd, st.sigma, v0, lanes);
    co_await w.load(rd);

    kutil::Lanes<double> acc{};
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, ll, sl;
        walk.gatherCol(el, st.gb.col, j);
        co_await w.load(el);
        walk.gatherNbr(ll, st.level, j);
        co_await w.load(ll);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.level[x.nbr] == lv + 1) {
                kutil::addElem(sl, st.sigma, x.nbr);
                kutil::addElem(sl, st.delta, x.nbr);
            }
        });
        if (sl.empty())
            continue;
        co_await w.load(sl);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.level[x.nbr] == lv + 1 && st.sigma[x.nbr] > 0.0)
                acc[x.lane] += (1.0 + st.delta[x.nbr]) / st.sigma[x.nbr];
        });
        co_await w.compute(1);
    }
    AddrSet wr;
    walk.forEachLane([&](std::uint32_t l, VertexId v) {
        st.delta[v] = st.sigma[v] * acc[l];
        kutil::addElem(wr, st.delta, v);
    });
    co_await w.store(wr);
}

} // namespace

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

} // namespace gga
