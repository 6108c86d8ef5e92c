/**
 * @file
 * Connected components (paper: CC), adapted from the ECL-CC style of
 * Jaiganesh & Burtscher (HPDC'18): dynamic traversal with racy reads and
 * updates — the push+pull design point.
 *
 * Hook: for every edge (v, u) with u > v, chase both endpoints to their
 * roots (racy atomic loads whose values feed control flow) and link the
 * higher root under the lower (CAS). Compress: pointer-jump every vertex
 * to its root. Rounds repeat until no hook succeeds.
 *
 * The value-carrying atomics are why DRFrlx buys little here (Sec. IV-A4):
 * the warp must wait for each returned value regardless of relaxation.
 */

#include "apps/app.hpp"
#include "apps/kernel_util.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

struct CcState
{
    CcState(Gpu& gpu, const CsrGraph& graph)
        : g(graph),
          gb(gpu.mem(), graph),
          parent(gpu.mem(), graph.numVertices())
    {
    }

    const CsrGraph& g;
    GraphBuffers gb;
    DeviceBuffer<std::uint32_t> parent;
    bool changed = false;
};

/**
 * One lock-step step of a root chase, the racy atomic loads whose values
 * feed control flow: each lane with its bit set in @p on that is not at
 * a root moves r[l] one parent up when @p climb, and @p words collects
 * the parent words of the lanes still short of a root. The chase ends
 * when words is empty.
 */
void
chaseStep(const CcState& st, kutil::Lanes<VertexId>& r, std::uint32_t on,
          std::uint32_t lanes, bool climb, AddrSet& words)
{
    words.clear();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        if (!((on >> l) & 1u) || st.parent[r[l]] == r[l])
            continue;
        if (climb)
            r[l] = st.parent[r[l]];
        if (st.parent[r[l]] != r[l])
            words.pushUnique(kutil::wordOf(st.parent, r[l]));
    }
}

WarpTask
ccInit(Warp& w, CcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l)
        st.parent[v0 + l] = v0 + l;
    AddrSet wr;
    kutil::addRange(wr, st.parent, v0, lanes);
    co_await w.store(wr);
}

WarpTask
ccHook(Warp& w, CcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    co_await w.load(rd);

    // Chase each lane's own vertex to its root.
    kutil::Lanes<VertexId> rv;
    for (std::uint32_t l = 0; l < lanes; ++l)
        rv[l] = v0 + l;
    AddrSet words;
    chaseStep(st, rv, ~0u, lanes, /*climb=*/false, words);
    while (!words.empty()) {
        co_await w.atomic(words, /*needs_value=*/true);
        chaseStep(st, rv, ~0u, lanes, /*climb=*/true, words);
    }

    const kutil::EdgeWalk walk(st.g, w);
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el;
        kutil::Lanes<VertexId> ru;
        std::uint32_t work = 0; // bit l: lane l has a u > v edge
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (x.nbr > x.v) { // each undirected pair processed once
                ru[x.lane] = x.nbr;
                work |= 1u << x.lane;
                kutil::addElem(el, st.gb.col, x.e);
            }
        });
        if (el.empty())
            continue;
        co_await w.load(el);

        // Chase the neighbors to their roots.
        chaseStep(st, ru, work, lanes, /*climb=*/false, words);
        while (!words.empty()) {
            co_await w.atomic(words, /*needs_value=*/true);
            chaseStep(st, ru, work, lanes, /*climb=*/true, words);
        }

        // Union: CAS the higher root under the lower.
        words.clear();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            if (!((work >> l) & 1u) || rv[l] == ru[l])
                continue;
            const VertexId hi = std::max(rv[l], ru[l]);
            const VertexId lo = std::min(rv[l], ru[l]);
            words.pushUnique(kutil::wordOf(st.parent, hi));
            if (st.parent[hi] == hi) {
                st.parent[hi] = lo; // CAS success
                st.changed = true;
            }
            // On failure another thread merged hi; the next round
            // re-processes this edge with fresher roots.
            rv[l] = std::min(rv[l], lo);
        }
        if (!words.empty())
            co_await w.atomic(words, /*needs_value=*/true);
    }
}

WarpTask
ccCompress(Warp& w, CcState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    kutil::Lanes<VertexId> r;
    for (std::uint32_t l = 0; l < lanes; ++l)
        r[l] = v0 + l;
    AddrSet words;
    chaseStep(st, r, ~0u, lanes, /*climb=*/false, words);
    while (!words.empty()) {
        co_await w.atomic(words, /*needs_value=*/true);
        chaseStep(st, r, ~0u, lanes, /*climb=*/true, words);
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.parent[v] != r[l]) {
            st.parent[v] = r[l];
            kutil::addElem(wr, st.parent, v);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

} // namespace

RunResult
runCc(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
      std::uint64_t /*seed: CC has no stochastic choices*/, AppOutput* out)
{
    GGA_ASSERT(cfg.prop == UpdateProp::PushPull,
               "CC has a dynamic traversal: configuration must be PushPull");
    Gpu gpu(params, cfg.coh, cfg.con);
    CcState st(gpu, g);
    const VertexId n = g.numVertices();

    gpu.launch("cc.init", n, [&st](Warp& w) { return ccInit(w, st); });
    for (std::uint32_t round = 0; round < kMaxSweeps; ++round) {
        st.changed = false;
        gpu.launch("cc.hook", n, [&st](Warp& w) { return ccHook(w, st); });
        gpu.launch("cc.compress", n,
                   [&st](Warp& w) { return ccCompress(w, st); });
        if (!st.changed)
            break;
    }

    if (out)
        *out = CcOutput{std::move(st.parent.host())};
    return collectResult(gpu);
}

} // namespace gga
