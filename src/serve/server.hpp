/**
 * @file
 * Service: the resident analytics server — HTTP routing over the
 * JobTable, the Orchestrator, and a shared Session executor.
 *
 * Endpoints (all bodies JSON):
 *
 *   GET  /healthz                      liveness
 *   GET  /stats                        graph store, executor, http
 *                                      connections, jobs, workers
 *   POST /v1/jobs                      submit {"plan": unit} or
 *                                      {"manifest": ..., "execution":
 *                                      "local"|"remote", "shards": N};
 *                                      tenant from "tenant" member or the
 *                                      X-GGA-Tenant header -> 202/400/429
 *   GET  /v1/jobs[?tenant=t]           list
 *   GET  /v1/jobs/{id}                 status; ?wait_ms=&since= long-polls
 *   GET  /v1/jobs/{id}/results?after=N stream completed unit rows
 *   GET  /v1/jobs/{id}/render[?csv=1]  rendered figure table (409 until done)
 *   DELETE /v1/jobs/{id}               cancel
 *   POST /v1/workers/register          {"name": ...} -> {"worker","lease_ms"}
 *   POST /v1/workers/poll              {"worker"} -> 200 assignment | 204
 *   POST /v1/workers/parts             {"worker","job","shard","results"}
 *
 * Local jobs run on the Session's TaskPool via submitManifestStreamed;
 * remote jobs are sharded by the Orchestrator across connected
 * gga_worker processes. Either path ends in the same key-sorted
 * ResultSet, so /render output is byte-identical to the offline
 * gga_merge --render pipeline.
 *
 * handle() is exposed directly so tests can drive the full routing
 * logic without sockets; start() binds the real listener.
 */

#ifndef GGA_SERVE_SERVER_HPP
#define GGA_SERVE_SERVER_HPP

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "api/session.hpp"
#include "serve/http.hpp"
#include "serve/job_table.hpp"
#include "serve/orchestrator.hpp"
#include "serve/rate_limiter.hpp"

namespace gga {

class Journal;

struct ServiceOptions
{
    std::uint16_t port = 7421;       ///< 0 = ephemeral (read back via port())
    std::size_t maxQueuedPerTenant = 8;
    RetryPolicy retry;               ///< remote lease/backoff policy
    unsigned tickMs = 200;           ///< lease-expiry scan period
    SessionOptions session;          ///< executor for local jobs
    /**
     * Durable state directory. "" runs in-memory (the pre-journal
     * behavior); otherwise every admission, state change, and verified
     * remote part is journaled there, and construction replays the
     * journal: unfinished jobs come back, completed shards are never
     * re-executed, and the final render is byte-identical.
     */
    std::string stateDir;
    /**
     * Shared secret for the worker endpoints. "" leaves them open;
     * otherwise register/poll/parts require the X-GGA-Worker-Token
     * header to match, else 401.
     */
    std::string workerToken;
    /**
     * Sustained POST /v1/jobs rate per tenant (tokens/sec, burst of
     * ceil(rate)). 0 disables. Over-rate submits get 429 with a
     * Retry-After header — distinct from the admission-bound 429,
     * which carries none.
     */
    double ratePerTenant = 0;
    unsigned ioTimeoutMs = 30000; ///< socket read deadline; 0 = none
    unsigned drainMs = 1000; ///< stop() waits this long for in-flight requests
};

class Service
{
  public:
    explicit Service(ServiceOptions opts = {});

    /** stop()s if still running. */
    ~Service();

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /** Bind and serve (loopback). Throws ServeError on bind failure. */
    void start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return http_.port(); }

    /** Unblock long-polls, stop the ticker, drain, join. Idempotent. */
    void stop();

    /** Full request routing — the socketless seam tests drive. */
    HttpResponse handle(const HttpRequest& req);

    Session& session() { return session_; }
    JobTable& jobs() { return jobs_; }
    Orchestrator& orchestrator() { return orch_; }

  private:
    HttpResponse submitJob(const HttpRequest& req);
    HttpResponse jobStatus(const HttpRequest& req, const std::string& id);
    HttpResponse jobResults(const HttpRequest& req, const std::string& id);
    HttpResponse jobRender(const HttpRequest& req, const std::string& id);
    HttpResponse workerEndpoint(const HttpRequest& req,
                                const std::string& action);
    HttpResponse statsResponse();

    /** Kick off local execution of an admitted job. */
    void startLocalJob(const std::string& id, const Manifest& manifest);

    ServiceOptions opts_;
    // Destruction order matters (members destroy bottom-up): http_ stops
    // first so no new requests arrive, the ticker joins, then session_
    // drains its executor — whose callbacks touch jobs_ — then jobs_
    // (whose observer writes to journal_), and journal_ goes last.
    // No mutex of its own, so nothing here is GUARDED_BY: every member
    // below is internally synchronized (JobTable/Orchestrator/HttpServer/
    // Journal/TenantRateLimiter carry annotated gga::Mutexes; Session is
    // lock-free by design), and the tick thread's only shared state is
    // the stopping_ flag. recoveredJobs_ is written once in the ctor,
    // before any thread exists.
    std::unique_ptr<Journal> journal_; ///< null when stateDir is ""
    std::uint64_t recoveredJobs_ = 0;
    TenantRateLimiter limiter_;
    JobTable jobs_;
    Orchestrator orch_;
    Session session_;
    std::atomic<bool> stopping_{false};
    std::thread ticker_;
    HttpServer http_;
};

} // namespace gga

#endif // GGA_SERVE_SERVER_HPP
