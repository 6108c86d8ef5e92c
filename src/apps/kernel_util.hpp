/**
 * @file
 * Helpers for writing warp-level SIMT kernels: coalesced/gather address
 * set construction and the lock-step edge walk.
 */

#ifndef GGA_APPS_KERNEL_UTIL_HPP
#define GGA_APPS_KERNEL_UTIL_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "graph/csr.hpp"
#include "sim/address_space.hpp"
#include "sim/warp.hpp"

namespace gga::kutil {

/** Add the (deduplicated) line of element @p idx of @p buf. */
template <typename T>
void
addElem(AddrSet& s, const DeviceBuffer<T>& buf, std::size_t idx)
{
    s.pushUnique(lineOf(buf.addrOf(idx)));
}

/** Add the lines of the contiguous range [first, first+count) of @p buf. */
template <typename T>
void
addRange(AddrSet& s, const DeviceBuffer<T>& buf, std::size_t first,
         std::size_t count)
{
    if (count == 0)
        return;
    const Addr lo = lineOf(buf.addrOf(first));
    const Addr hi = lineOf(buf.addrOf(first + count - 1));
    for (Addr line = lo; line <= hi; line += SimParams::lineBytes)
        s.pushUnique(line);
}

/** Word address of element @p idx (atomic granularity). */
template <typename T>
Addr
wordOf(const DeviceBuffer<T>& buf, std::size_t idx)
{
    return buf.addrOf(idx);
}

/** Edge j of one lane's adjacency list, as an EdgeWalk visitor sees it. */
struct LaneEdge
{
    std::uint32_t lane; ///< lane index in the warp
    VertexId v;         ///< the lane's vertex
    EdgeId e;           ///< index into col (and weight)
    VertexId nbr;       ///< col[e]: the target (push) or source (pull)
};

/**
 * The lock-step adjacency walk that every push and pull kernel issues:
 * at step j, each active lane whose list has more than j edges visits
 * its edge j, lanes in order, so an AddrSet a visitor fills holds its
 * lines in the order the L1 issues them. The step count is the largest
 * degree over the lanes active at construction. A retired lane skips
 * every later step; a visitor may retire its own lane.
 */
class EdgeWalk
{
    static_assert(SimParams::warpSize <= 32, "the lane mask is 32 bits wide");

  public:
    /** Every live lane of @p w active. */
    EdgeWalk(const CsrGraph& g, const Warp& w)
        : EdgeWalk(g, w, [](VertexId) { return true; })
    {
    }

    /** The lanes whose vertex v satisfies @p active(v) active. */
    template <typename Pred>
    EdgeWalk(const CsrGraph& g, const Warp& w, Pred active)
        : g_(g), v0_(w.firstThread())
    {
        const std::uint32_t lanes = w.laneCount();
        for (std::uint32_t l = 0; l < lanes; ++l) {
            const VertexId v = v0_ + l;
            if (!active(v))
                continue;
            mask_ |= 1u << l;
            begin_[l] = g.edgeBegin(v);
            degree_[l] = g.degree(v);
            steps_ = std::max(steps_, degree_[l]);
        }
    }

    bool any() const { return mask_ != 0; }
    std::uint32_t steps() const { return steps_; }
    void retire(std::uint32_t lane) { mask_ &= ~(1u << lane); }

    /** fn(lane, v) for each active lane, in lane order. */
    template <typename Fn>
    void
    forEachLane(Fn&& fn) const
    {
        for (std::uint32_t m = mask_; m != 0; m &= m - 1) {
            const auto l = static_cast<std::uint32_t>(std::countr_zero(m));
            fn(l, v0_ + l);
        }
    }

    /** fn(LaneEdge) for edge j of each active lane that has one. */
    template <typename Fn>
    void
    forEachEdge(std::uint32_t j, Fn&& fn) const
    {
        for (std::uint32_t m = mask_; m != 0; m &= m - 1) {
            const auto l = static_cast<std::uint32_t>(std::countr_zero(m));
            if (j < degree_[l]) {
                const EdgeId e = begin_[l] + j;
                fn(LaneEdge{l, v0_ + l, e, g_.edgeTarget(e)});
            }
        }
    }

    /** Add the col line of each edge j that forEachEdge visits. */
    void
    gatherCol(AddrSet& s, const DeviceBuffer<VertexId>& col,
              std::uint32_t j) const
    {
        forEachEdge(j, [&](const LaneEdge& x) { addElem(s, col, x.e); });
    }

    /** Add the line of buf[nbr] for each edge j that forEachEdge visits. */
    template <typename T>
    void
    gatherNbr(AddrSet& s, const DeviceBuffer<T>& buf, std::uint32_t j) const
    {
        forEachEdge(j, [&](const LaneEdge& x) { addElem(s, buf, x.nbr); });
    }

  private:
    const CsrGraph& g_;
    VertexId v0_;
    std::uint32_t mask_ = 0;
    std::uint32_t steps_ = 0;
    std::array<EdgeId, SimParams::warpSize> begin_{};
    std::array<std::uint32_t, SimParams::warpSize> degree_{};
};

/** One value per lane of a warp. */
template <typename T>
using Lanes = std::array<T, SimParams::warpSize>;

} // namespace gga::kutil

#endif // GGA_APPS_KERNEL_UTIL_HPP
