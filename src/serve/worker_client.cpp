#include "serve/worker_client.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "eval/run.hpp"
#include "support/faults.hpp"
#include "serve/http.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace gga {

std::size_t
runWorkerClient(Session& session, const WorkerClientOptions& opts)
{
    GGA_ASSERT(opts.port != 0, "worker client needs a service port");

    std::map<std::string, std::string> auth;
    if (!opts.token.empty())
        auth["X-GGA-Worker-Token"] = opts.token;

    Json reg = Json::object();
    reg.set("name", Json(opts.name));
    const HttpResponse regResp = httpRequest(
        opts.port, "POST", "/v1/workers/register", reg.dump(), auth);
    if (regResp.status != 200)
        throw ServeError("worker registration failed (HTTP " +
                         std::to_string(regResp.status) + ")");
    const Json regJson = Json::parse(regResp.body);
    const std::string worker = regJson.at("worker").asString();
    // Three renewals per lease, so one late renewal costs nothing.
    const auto renewEvery = std::chrono::milliseconds(
        std::max<std::uint64_t>(1, regJson.at("lease_ms").asU64() / 3));
    GGA_INFORM("worker ", worker, ": connected to 127.0.0.1:", opts.port);

    Json pollBody = Json::object();
    pollBody.set("worker", Json(worker));
    const std::string poll = pollBody.dump();

    std::size_t posted = 0;
    auto lastWork = std::chrono::steady_clock::now();
    while (true) {
        HttpResponse resp;
        try {
            resp = httpRequest(opts.port, "POST", "/v1/workers/poll",
                               poll, auth);
        } catch (const ServeError&) {
            GGA_INFORM("worker ", worker, ": server gone, exiting");
            return posted;
        }
        if (resp.status == 204) {
            if (opts.idleExitMs != 0 &&
                std::chrono::steady_clock::now() - lastWork >
                    std::chrono::milliseconds(opts.idleExitMs)) {
                GGA_INFORM("worker ", worker, ": idle, exiting");
                return posted;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.pollMs));
            continue;
        }
        if (resp.status != 200) {
            GGA_WARN("worker ", worker, ": poll returned HTTP ",
                     resp.status, ", exiting");
            return posted;
        }

        const Json a = Json::parse(resp.body);
        const std::string job = a.at("job").asString();
        const std::uint64_t shard = a.at("shard").asU64();
        // Fault injection: die holding the lease, part never posted.
        faults::crashPoint("crash.worker.assignment");
        std::string body;
        try {
            const Manifest manifest = Manifest::fromJson(a.at("manifest"));
            GGA_INFORM("worker ", worker, ": running shard ", shard + 1,
                       "/", a.at("shard_count").asU64(), " of ", job, " (",
                       manifest.size(), " units)");
            // The shard runs off this thread, which keeps renewing its
            // lease until it is done. A failed renewal is ignored: the
            // part, or else the lease's expiry, settles the shard.
            std::future<ResultSet> run =
                std::async(std::launch::async,
                           [&] { return runManifest(session, manifest); });
            Json renew = Json::object();
            renew.set("worker", Json(worker));
            renew.set("job", Json(job));
            renew.set("shard", Json(shard));
            while (run.wait_for(renewEvery) != std::future_status::ready) {
                try {
                    httpRequest(opts.port, "POST", "/v1/workers/renew",
                                renew.dump(), auth);
                } catch (const ServeError& err) {
                    GGA_WARN("worker ", worker, ": lease renewal failed: ",
                             err.what());
                }
            }
            ResultSet results = run.get();

            // Fault injection: drop the last row BEFORE the checksum is
            // taken — the checksum matches the thinned payload, so the
            // server's sub-manifest verification is what catches it.
            if (faults::fire("worker.part.thin") && !results.empty()) {
                Json arr = Json::array();
                const std::vector<UnitResult>& rows = results.results();
                for (std::size_t i = 0; i + 1 < rows.size(); ++i)
                    arr.push(rows[i].toJson());
                Json thin = Json::object();
                thin.set("results", std::move(arr));
                results = ResultSet::fromJson(thin);
            }

            std::string canon = results.toJson().dump();
            const std::uint64_t checksum = fnv1a(canon.data(), canon.size());
            // Fault injection: corrupt the payload AFTER the checksum,
            // the bit-rot-in-transit case the server's checksum catches.
            faults::corrupt("worker.part.corrupt", canon);

            body = "{\"worker\":\"" + worker + "\",\"job\":\"" + job +
                   "\",\"shard\":" + std::to_string(shard) +
                   ",\"checksum\":" + std::to_string(checksum) +
                   ",\"results\":" + canon + "}";
        } catch (const EvalError& err) {
            // The shard fails, not the worker: the server retries it
            // (perhaps on another host), then fails the job with this.
            GGA_WARN("worker ", worker, ": cannot run shard ", shard + 1,
                     " of ", job, ": ", err.what());
            Json failed = Json::object();
            failed.set("worker", Json(worker));
            failed.set("job", Json(job));
            failed.set("shard", Json(shard));
            failed.set("error", Json(err.what()));
            body = failed.dump();
        }
        // Fault injection: tear the request mid-body (connection lost).
        faults::truncate("worker.part.truncate", body);
        try {
            const HttpResponse pr = httpRequest(
                opts.port, "POST", "/v1/workers/parts", body, auth);
            if (pr.status == 200)
                ++posted;
            else
                GGA_WARN("worker ", worker, ": part for ", job, " shard ",
                         shard + 1, " answered HTTP ", pr.status);
        } catch (const ServeError& err) {
            GGA_WARN("worker ", worker, ": posting part failed: ",
                     err.what());
            return posted;
        }
        lastWork = std::chrono::steady_clock::now();
    }
}

} // namespace gga
