/**
 * @file
 * Single-source shortest paths (paper: SSSP). Static traversal; source
 * control (the frontier predicate elides whole sources under push);
 * source information (dist[s] hoisted by push).
 *
 * Topology-driven Bellman-Ford with iteration-stamped frontier flags:
 * a vertex is on iteration i's frontier iff stamp[v] == i; improvements
 * stamp the target with i+1.
 */

#include "apps/app.hpp"
#include "apps/kernel_util.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

struct SsspState
{
    SsspState(Gpu& gpu, const CsrGraph& graph)
        : g(graph),
          gb(gpu.mem(), graph),
          dist(gpu.mem(), graph.numVertices()),
          stamp(gpu.mem(), graph.numVertices())
    {
    }

    const CsrGraph& g;
    GraphBuffers gb;
    DeviceBuffer<std::uint32_t> dist;
    DeviceBuffer<std::uint32_t> stamp;
    std::uint32_t iter = 0;
};

WarpTask
ssspInit(Warp& w, SsspState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        st.dist[v0 + l] = kInfDist;
        st.stamp[v0 + l] = 0;
    }
    AddrSet wr;
    kutil::addRange(wr, st.dist, v0, lanes);
    kutil::addRange(wr, st.stamp, v0, lanes);
    co_await w.store(wr);
}

WarpTask
ssspSeed(Warp& w, SsspState& st)
{
    st.dist[0] = 0;
    st.stamp[0] = 1;
    AddrSet wr;
    kutil::addElem(wr, st.dist, 0);
    kutil::addElem(wr, st.stamp, 0);
    co_await w.store(wr);
}

WarpTask
ssspPush(Warp& w, SsspState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t iter = st.iter;

    AddrSet rd;
    kutil::addRange(rd, st.stamp, v0, lanes);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.stamp[v] == iter; });
    if (!walk.any())
        co_return; // whole warp elided by the source predicate

    rd.clear();
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    kutil::addRange(rd, st.dist, v0, lanes);
    co_await w.load(rd);

    const bool weighted = st.g.hasWeights();
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, words, stamped;
        // Each lane's col line, then its weight line.
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            kutil::addElem(el, st.gb.col, x.e);
            if (weighted)
                kutil::addElem(el, st.gb.weight, x.e);
        });
        co_await w.load(el);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            const std::uint64_t nd =
                static_cast<std::uint64_t>(st.dist[x.v]) +
                st.g.edgeWeight(x.e);
            words.pushUnique(kutil::wordOf(st.dist, x.nbr));
            if (nd < st.dist[x.nbr]) {
                st.dist[x.nbr] = static_cast<std::uint32_t>(nd);
                st.stamp[x.nbr] = iter + 1;
                kutil::addElem(stamped, st.stamp, x.nbr);
            }
        });
        // Unconditional sparse remote atomicMin — off the critical path.
        co_await w.atomic(words, /*needs_value=*/false);
        if (!stamped.empty())
            co_await w.store(stamped);
    }
}

WarpTask
ssspPull(Warp& w, SsspState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    const std::uint32_t iter = st.iter;

    AddrSet rd;
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    kutil::addRange(rd, st.dist, v0, lanes);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(st.g, w);
    const bool weighted = st.g.hasWeights();
    kutil::Lanes<std::uint64_t> best;
    for (std::uint32_t l = 0; l < lanes; ++l)
        best[l] = st.dist[v0 + l];

    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, sl, dl;
        walk.gatherCol(el, st.gb.col, j);
        co_await w.load(el);
        walk.gatherNbr(sl, st.stamp, j);
        // Sparse remote reads of the frontier stamps (blocking).
        co_await w.load(sl);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.stamp[x.nbr] == iter) {
                kutil::addElem(dl, st.dist, x.nbr);
                if (weighted)
                    kutil::addElem(dl, st.gb.weight, x.e);
            }
        });
        if (dl.empty())
            continue;
        co_await w.load(dl);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.stamp[x.nbr] == iter) {
                const std::uint64_t nd =
                    static_cast<std::uint64_t>(st.dist[x.nbr]) +
                    st.g.edgeWeight(x.e);
                best[x.lane] = std::min(best[x.lane], nd);
            }
        });
        co_await w.compute(1);
    }

    AddrSet wr;
    walk.forEachLane([&](std::uint32_t l, VertexId v) {
        if (best[l] < st.dist[v]) {
            st.dist[v] = static_cast<std::uint32_t>(best[l]);
            st.stamp[v] = iter + 1;
            kutil::addElem(wr, st.dist, v);
            kutil::addElem(wr, st.stamp, v);
        }
    });
    if (!wr.empty())
        co_await w.store(wr);
}

} // namespace

RunResult
runSssp(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
        std::uint64_t /*seed: the source is fixed*/, AppOutput* out)
{
    GGA_ASSERT(cfg.prop != UpdateProp::PushPull,
               "SSSP has a static traversal: use Push or Pull");
    Gpu gpu(params, cfg.coh, cfg.con);
    SsspState st(gpu, g);
    const VertexId n = g.numVertices();
    const bool push = cfg.prop == UpdateProp::Push;

    gpu.launch("sssp.init", n, [&st](Warp& w) { return ssspInit(w, st); });
    gpu.launch("sssp.seed", 1, [&st](Warp& w) { return ssspSeed(w, st); });

    for (st.iter = 1; st.iter <= kMaxSweeps; ++st.iter) {
        if (push)
            gpu.launch("sssp.push", n,
                       [&st](Warp& w) { return ssspPush(w, st); });
        else
            gpu.launch("sssp.pull", n,
                       [&st](Warp& w) { return ssspPull(w, st); });
        bool frontier = false;
        for (VertexId v = 0; v < n && !frontier; ++v)
            frontier = st.stamp[v] == st.iter + 1;
        if (!frontier)
            break;
    }
    if (st.iter > kMaxSweeps)
        GGA_WARN("SSSP hit the sweep cap without converging");

    if (out)
        *out = SsspOutput{std::move(st.dist.host())};
    return collectResult(gpu);
}

} // namespace gga
