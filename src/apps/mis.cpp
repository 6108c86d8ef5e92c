/**
 * @file
 * Maximal independent set (paper: MIS). Static traversal; symmetric
 * control and information: both sides predicate on "undecided" and read
 * priorities, so neither push nor pull elides more work structurally.
 *
 * Luby rounds with unique hashed priorities: each round every undecided
 * vertex whose priority exceeds every undecided neighbor's joins the set;
 * its neighbors drop out.
 */

#include "apps/app.hpp"
#include "apps/kernel_util.hpp"
#include "apps/nbr_max.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

constexpr std::uint32_t kUndecided = 0;
constexpr std::uint32_t kInSet = 1;
constexpr std::uint32_t kOut = 2;

struct MisState
{
    MisState(Gpu& gpu, const CsrGraph& graph, std::uint64_t seed_)
        : g(graph),
          seed(seed_),
          gb(gpu.mem(), graph),
          state(gpu.mem(), graph.numVertices()),
          pri(gpu.mem(), graph.numVertices()),
          nbrMax(gpu.mem(), graph.numVertices()),
          winnerRound(gpu.mem(), graph.numVertices())
    {
    }

    const CsrGraph& g;
    std::uint64_t seed;
    GraphBuffers gb;
    DeviceBuffer<std::uint32_t> state;
    DeviceBuffer<std::uint32_t> pri;
    DeviceBuffer<std::uint32_t> nbrMax;
    DeviceBuffer<std::uint32_t> winnerRound;
    std::uint32_t round = 0;
};

WarpTask
misInit(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        st.state[v] = kUndecided;
        st.pri[v] = priorityOf(v, st.g.numVertices(), st.seed);
        st.winnerRound[v] = kInfDist;
    }
    AddrSet wr;
    kutil::addRange(wr, st.state, v0, lanes);
    kutil::addRange(wr, st.pri, v0, lanes);
    kutil::addRange(wr, st.winnerRound, v0, lanes);
    co_await w.store(wr);
}

WarpTask
misDecide(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.state, v0, lanes);
    kutil::addRange(rd, st.pri, v0, lanes);
    kutil::addRange(rd, st.nbrMax, v0, lanes);
    co_await w.load(rd);
    co_await w.compute(1);
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (st.state[v] == kUndecided && st.pri[v] > st.nbrMax[v]) {
            st.state[v] = kInSet;
            st.winnerRound[v] = st.round;
            kutil::addElem(wr, st.state, v);
            kutil::addElem(wr, st.winnerRound, v);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

WarpTask
misOutPush(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.winnerRound, v0, lanes);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    co_await w.load(rd);

    const kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.winnerRound[v] == st.round; });
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, words;
        walk.gatherCol(el, st.gb.col, j);
        co_await w.load(el);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.state[x.nbr] == kUndecided)
                st.state[x.nbr] = kOut;
            words.pushUnique(kutil::wordOf(st.state, x.nbr));
        });
        co_await w.atomic(words, /*needs_value=*/false);
    }
}

WarpTask
misOutPull(Warp& w, MisState& st)
{
    const VertexId v0 = w.firstThread();
    const std::uint32_t lanes = w.laneCount();
    AddrSet rd;
    kutil::addRange(rd, st.state, v0, lanes);
    kutil::addRange(rd, st.gb.rowOff, v0, lanes + 1);
    co_await w.load(rd);

    // A lane that drops out stops gathering.
    kutil::EdgeWalk walk(
        st.g, w, [&](VertexId v) { return st.state[v] == kUndecided; });
    kutil::Lanes<bool> drop{};
    for (std::uint32_t j = 0; j < walk.steps(); ++j) {
        AddrSet el, sl;
        walk.gatherCol(el, st.gb.col, j);
        if (el.empty())
            break;
        co_await w.load(el);
        walk.gatherNbr(sl, st.state, j);
        co_await w.load(sl);
        walk.forEachEdge(j, [&](const kutil::LaneEdge& x) {
            if (st.state[x.nbr] == kInSet) {
                drop[x.lane] = true;
                walk.retire(x.lane);
            }
        });
    }
    AddrSet wr;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const VertexId v = v0 + l;
        if (drop[l]) {
            st.state[v] = kOut;
            kutil::addElem(wr, st.state, v);
        }
    }
    if (!wr.empty())
        co_await w.store(wr);
}

} // namespace

RunResult
runMis(const CsrGraph& g, const SystemConfig& cfg, const SimParams& params,
       std::uint64_t seed, AppOutput* out)
{
    GGA_ASSERT(cfg.prop != UpdateProp::PushPull,
               "MIS has a static traversal: use Push or Pull");
    Gpu gpu(params, cfg.coh, cfg.con);
    MisState st(gpu, g, seed);
    const VertexId n = g.numVertices();
    const bool push = cfg.prop == UpdateProp::Push;

    const NbrMaxView nbr{"mis", g, st.gb, st.state, kUndecided,
                         st.pri, st.nbrMax};
    gpu.launch("mis.init", n, [&st](Warp& w) { return misInit(w, st); });
    for (st.round = 1; st.round <= kMaxSweeps; ++st.round) {
        launchNbrMaxRound(gpu, nbr, push);
        gpu.launch("mis.decide", n,
                   [&st](Warp& w) { return misDecide(w, st); });
        if (push)
            gpu.launch("mis.out.push", n,
                       [&st](Warp& w) { return misOutPush(w, st); });
        else
            gpu.launch("mis.out.pull", n,
                       [&st](Warp& w) { return misOutPull(w, st); });
        bool undecided = false;
        for (VertexId v = 0; v < n && !undecided; ++v)
            undecided = st.state[v] == kUndecided;
        if (!undecided)
            break;
    }

    if (out)
        *out = MisOutput{std::move(st.state.host())};
    return collectResult(gpu);
}

} // namespace gga
