#include "apps/nbr_max.hpp"

#include "apps/kernel_util.hpp"
#include "support/rng.hpp"

namespace gga {

namespace {

WarpTask
nbrMaxReset(Warp& w, const NbrMaxView& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.status, v0, lanes);
    co_await w.load(rd);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.status[v] == st.undecided) {
            st.nbrMax[v] = 0;
            kutil::addElem(wr, st.nbrMax, v);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
nbrMaxPush(Warp& w, const NbrMaxView& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.status, v0, lanes);
    kutil::addRange(rd, st.pri, v0, lanes);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.status[v] == st.undecided; });
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, words;
        walk.gatherCol(el, st.gb.col, j);
        co_await w.load(el);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            st.nbrMax[x.nbr] = std::max(st.nbrMax[x.nbr], st.pri[x.v]);
            words.pushUnique(kutil::wordOf(st.nbrMax, x.nbr));
        });
        // Unconditional atomicMax: no target-status gather on the push path.
        co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
nbrMaxPull(Warp& w, const NbrMaxView& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.status, v0, lanes);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.status[v] == st.undecided; });
    kutil::Lanes<std::uint32_t> acc{};
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, sl;
        walk.gatherCol(el, st.gb.col, j);
        co_await w.load(el);
        // status[s] and pri[s] are independent loads off the same index;
        // the kernel issues them as one gather (compiler-scheduled ILP).
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            kutil::addElem(sl, st.status, x.nbr);
            kutil::addElem(sl, st.pri, x.nbr);
        });
        co_await w.load(sl);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.status[x.nbr] == st.undecided)
                acc[x.lane] = std::max(acc[x.lane], st.pri[x.nbr]);
        });
        co_await w.compute(1);
    }
    AddrSet wr;
    walk.forEachLane([&](std::uint32_t l, VertexId v) {
        st.nbrMax[v] = acc[l];
        kutil::addElem(wr, st.nbrMax, v);
    });
    if (!wr.empty())
        co_await w.store(wr);
}

} // namespace

std::uint32_t
priorityOf(VertexId v, VertexId n, std::uint64_t salt)
{
    std::uint32_t id_bits = 1;
    while ((1u << id_bits) < n)
        ++id_bits;
    return (static_cast<std::uint32_t>(hashMix64(v ^ salt)) << id_bits) | v;
}

void
launchNbrMaxRound(Gpu& gpu, const NbrMaxView& view, bool push)
{
    const VertexId n = view.g.numVertices();
    gpu.launch(view.app + ".reset", n,
               [&view](Warp& w) { return nbrMaxReset(w, view); });
    if (push)
        gpu.launch(view.app + ".prop.push", n,
                   [&view](Warp& w) { return nbrMaxPush(w, view); });
    else
        gpu.launch(view.app + ".prop.pull", n,
                   [&view](Warp& w) { return nbrMaxPull(w, view); });
}

} // namespace gga
