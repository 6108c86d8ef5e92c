/**
 * @file
 * Minimal fork-join parallelism for deterministic data-parallel phases.
 *
 * Every parallel phase in GGA (CSR construction, graph synthesis) is
 * structured as disjoint index-addressed writes, so a plain fork-join
 * with no shared mutable state is all the machinery needed: thread
 * creation forks, join establishes the happens-before edge, and the
 * output is byte-identical at every thread count because the
 * decomposition is by fixed index ranges, never by thread id.
 */

#ifndef GGA_SUPPORT_PARALLEL_HPP
#define GGA_SUPPORT_PARALLEL_HPP

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "support/faults.hpp"

namespace gga {

/**
 * Hard cap on the threads one parallel region (a forkJoin, or the
 * TaskPool executor) starts: widths beyond it never help this workload,
 * and an unclamped thread count must not spawn until exhaustion.
 */
inline constexpr unsigned kMaxThreads = 512;

/**
 * Parse a thread count with parseUnsigned: 0, a sign or any other
 * character warns and gives 1, and a count above kMaxThreads (64-bit
 * overflow included) warns and gives kMaxThreads.
 */
unsigned parseThreadCount(std::string_view text);

/**
 * GGA_SESSION_THREADS through parseThreadCount, read once per process;
 * 1 when unset. The default width of Session executors and graph builds.
 */
unsigned defaultThreads();

/**
 * Run fn(t) exactly once for every t in [0, threads), on at most
 * kMaxThreads threads counting the caller: thread w runs t = w,
 * w + width, w + 2 * width, ... If a thread cannot start (resource
 * exhaustion, or the "fork.thread.fail" fault site), no further threads
 * are started and the caller runs the indices of every thread that did
 * not start. fn must confine its writes to locations owned by t; then
 * which thread ran t never shows in the output.
 */
template <typename Fn>
void
forkJoin(unsigned threads, const Fn& fn)
{
    if (threads <= 1) {
        fn(0);
        return;
    }
    const unsigned width = std::min(threads, kMaxThreads);
    const auto stripe = [&fn, threads, width](unsigned w) {
        for (unsigned t = w; t < threads; t += width)
            fn(t);
    };
    std::vector<std::thread> workers;
    workers.reserve(width - 1);
    unsigned started = 1; // stripe 0 is the caller's
    for (; started < width; ++started) {
        try {
            if (faults::fire("fork.thread.fail"))
                throw std::system_error(std::make_error_code(
                    std::errc::resource_unavailable_try_again));
            workers.emplace_back(stripe, started);
        } catch (const std::system_error&) {
            break;
        }
    }
    stripe(0);
    for (unsigned w = started; w < width; ++w)
        stripe(w);
    for (std::thread& w : workers)
        w.join();
}

/**
 * Run fn(i) for every i in [0, items), items statically striped across
 * `threads` workers in contiguous chunks. The chunk boundaries depend
 * only on (items, threads-independent indices): item i is always
 * processed, alone, with the same arguments — so any fn whose writes
 * are addressed by i produces thread-count-invariant output.
 */
template <typename Fn>
void
parallelFor(unsigned threads, std::size_t items, const Fn& fn)
{
    if (items == 0)
        return;
    const unsigned T = static_cast<unsigned>(
        std::min<std::size_t>(threads == 0 ? 1 : threads, items));
    forkJoin(T, [&](unsigned t) {
        const std::size_t begin = items * t / T;
        const std::size_t end = items * (t + 1) / T;
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
    });
}

} // namespace gga

#endif // GGA_SUPPORT_PARALLEL_HPP
