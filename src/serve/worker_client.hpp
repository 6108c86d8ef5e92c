/**
 * @file
 * WorkerClient: the remote-worker side of the serve protocol — what
 * `gga_worker --connect` runs. Registers with a Service, polls for
 * shard assignments, executes each assigned sub-manifest on its own
 * Session (the same runManifest path the offline CLI uses, so parts are
 * bit-identical to offline shards), and posts the ResultSet back. While
 * a shard runs, the worker renews its lease every third of the lease_ms
 * its registration reply carried, so a shard may run longer than the
 * lease.
 *
 * A shard the worker cannot run (a unit whose input cannot be built)
 * is reported to the server with the reason in place of results, and
 * the loop keeps polling: the server retries the shard like a rejected
 * part, and fails the job with the reason once its attempts run out.
 *
 * The loop exits when idleExitMs passes without an assignment (so CI
 * workers drain and leave) or when the server becomes unreachable after
 * registration. The fault site "crash.worker.assignment" (GGA_FAULTS)
 * hard-exits the process when an assignment arrives, before running it
 * — exactly the "worker died mid-job" case the orchestrator's lease
 * retry exists for.
 *
 * Threads: the loop thread polls, posts, and renews; each shard runs on
 * one std::async task, which the loop joins before it polls again. The
 * two share only the borrowed Session (internally synchronized, its
 * classes annotated one layer down) and the task's future, so there are
 * no members and no locks here for -Wthread-safety to see.
 */

#ifndef GGA_SERVE_WORKER_CLIENT_HPP
#define GGA_SERVE_WORKER_CLIENT_HPP

#include <cstdint>
#include <string>

#include "api/session.hpp"

namespace gga {

struct WorkerClientOptions
{
    std::uint16_t port = 0;      ///< service port (required)
    std::string name;            ///< advisory worker name
    unsigned pollMs = 100;       ///< delay between idle polls
    unsigned idleExitMs = 0;     ///< 0 = poll forever
    /** Sent as X-GGA-Worker-Token on every request when non-empty; must
     *  match the server's --worker-token or everything answers 401. */
    std::string token;
};

/**
 * Run the worker loop until idle-exit or server shutdown. Returns the
 * number of parts successfully posted. Throws ServeError when the
 * service cannot be reached at registration time.
 */
std::size_t runWorkerClient(Session& session,
                            const WorkerClientOptions& opts);

} // namespace gga

#endif // GGA_SERVE_WORKER_CLIENT_HPP
