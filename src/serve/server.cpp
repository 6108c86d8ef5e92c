#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "harness/figures.hpp"
#include "support/faults.hpp"
#include "serve/journal.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/parse.hpp"

namespace gga {

namespace {

HttpResponse
jsonResponse(int status, Json body)
{
    return HttpResponse{status, "application/json", body.dump() + "\n",
                        {}};
}

HttpResponse
errorResponse(int status, const std::string& why)
{
    Json j = Json::object();
    j.set("error", Json(why));
    return jsonResponse(status, std::move(j));
}

/** Split "/v1/jobs/job-3/render" into segments. */
std::vector<std::string>
pathSegments(const std::string& path)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (begin < path.size()) {
        while (begin < path.size() && path[begin] == '/')
            ++begin;
        std::size_t end = begin;
        while (end < path.size() && path[end] != '/')
            ++end;
        if (end > begin)
            out.push_back(path.substr(begin, end - begin));
        begin = end;
    }
    return out;
}

} // namespace

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)),
      journal_(opts_.stateDir.empty()
                   ? nullptr
                   : std::make_unique<Journal>(opts_.stateDir)),
      limiter_(opts_.ratePerTenant),
      jobs_(opts_.maxQueuedPerTenant, journal_.get()),
      orch_(jobs_, opts_.retry, journal_.get()),
      session_(opts_.session),
      http_([this](const HttpRequest& req) { return handle(req); })
{
    if (!journal_)
        return;
    // Replay: resume unfinished work. Remote jobs keep their recovered
    // shards (never re-executed); local jobs are deterministic, so they
    // simply re-run from scratch and land on the same bytes.
    for (const JobTable::JobRestore& r : journal_->recovered()) {
        jobs_.restore(r);
        if (r.remote)
            orch_.enqueueJob(r.id, r.shards, r.doneShards);
        else
            startLocalJob(r.id, r.manifest);
    }
}

Service::~Service()
{
    stop();
}

void
Service::start()
{
    http_.start(opts_.port, opts_.ioTimeoutMs);
    ticker_ = std::thread([this] {
        while (!stopping_.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts_.tickMs));
            orch_.tick();
        }
    });
    GGA_INFORM("serve: listening on 127.0.0.1:", port());
}

void
Service::stop()
{
    if (stopping_.exchange(true))
        return;
    jobs_.shutdown(); // wake long-polls so connections can drain
    http_.stop(opts_.drainMs);
    if (ticker_.joinable())
        ticker_.join();
    if (journal_)
        journal_->sync();
}

HttpResponse
Service::handle(const HttpRequest& req)
{
    const std::vector<std::string> seg = pathSegments(req.path);
    try {
        if (seg.size() == 1 && seg[0] == "healthz") {
            if (req.method != "GET")
                return errorResponse(405, "GET only");
            Json j = Json::object();
            j.set("status", Json("ok"));
            return jsonResponse(200, std::move(j));
        }
        if (seg.size() == 1 && seg[0] == "stats") {
            if (req.method != "GET")
                return errorResponse(405, "GET only");
            return statsResponse();
        }
        if (seg.size() >= 2 && seg[0] == "v1" && seg[1] == "jobs") {
            if (seg.size() == 2) {
                if (req.method == "POST")
                    return submitJob(req);
                if (req.method == "GET") {
                    Json arr = Json::array();
                    for (const JobSnapshot& s :
                         jobs_.list(req.queryOr("tenant", "")))
                        arr.push(s.toJson());
                    Json j = Json::object();
                    j.set("jobs", std::move(arr));
                    return jsonResponse(200, std::move(j));
                }
                return errorResponse(405, "GET or POST");
            }
            const std::string& id = seg[2];
            if (seg.size() == 3) {
                if (req.method == "GET")
                    return jobStatus(req, id);
                if (req.method == "DELETE") {
                    if (!jobs_.snapshot(id))
                        return errorResponse(404, "no such job: " + id);
                    jobs_.cancel(id);
                    orch_.forgetJob(id);
                    return jsonResponse(200,
                                        jobs_.snapshot(id)->toJson());
                }
                return errorResponse(405, "GET or DELETE");
            }
            if (seg.size() == 4 && req.method == "GET" &&
                seg[3] == "results")
                return jobResults(req, id);
            if (seg.size() == 4 && req.method == "GET" &&
                seg[3] == "render")
                return jobRender(req, id);
            return errorResponse(404, "unknown endpoint");
        }
        if (seg.size() == 3 && seg[0] == "v1" && seg[1] == "workers") {
            if (req.method != "POST")
                return errorResponse(405, "POST only");
            if (!opts_.workerToken.empty()) {
                const auto it = req.headers.find("x-gga-worker-token");
                if (it == req.headers.end() ||
                    it->second != opts_.workerToken)
                    return errorResponse(
                        401, "missing or invalid worker token");
            }
            return workerEndpoint(req, seg[2]);
        }
        return errorResponse(404, "unknown endpoint");
    } catch (const JsonError& err) {
        return errorResponse(400, std::string("bad JSON: ") + err.what());
    } catch (const EvalError& err) {
        return errorResponse(400, err.what());
    } catch (const AdmissionError& err) {
        return errorResponse(429, err.what());
    }
}

HttpResponse
Service::submitJob(const HttpRequest& req)
{
    const Json body = Json::parse(req.body);
    std::string tenant;
    if (const Json* t = body.find("tenant"))
        tenant = t->asString();
    if (tenant.empty()) {
        const auto it = req.headers.find("x-gga-tenant");
        tenant = it == req.headers.end() ? "default" : it->second;
    }

    // Rate limit before any parsing work: a tenant over its sustained
    // submit rate gets 429 + Retry-After (the admission-bound 429 below
    // carries no Retry-After — that one clears when a job finishes, not
    // on a clock).
    if (const std::optional<unsigned> retryAfter = limiter_.acquire(tenant)) {
        HttpResponse r = errorResponse(
            429, "tenant \"" + tenant + "\" is over its submit rate");
        r.headers["Retry-After"] = std::to_string(*retryAfter);
        return r;
    }

    const Json* plan = body.find("plan");
    const Json* manifestJson = body.find("manifest");
    if (!!plan == !!manifestJson)
        return errorResponse(
            400, "body needs exactly one of \"plan\" or \"manifest\"");
    Manifest manifest;
    if (plan) {
        manifest.add(WorkUnit::fromJson(*plan));
    } else {
        manifest = Manifest::fromJson(*manifestJson);
        if (manifest.empty())
            return errorResponse(400, "manifest has no units");
    }

    // Scheduling lane: single plans are someone waiting on one result
    // (interactive); manifests are bulk sweeps (batch). An explicit
    // "priority" wins either way, and lands in the manifest's meta so it
    // survives the journal and a crash replay.
    Lane lane = plan ? Lane::Interactive : Lane::Batch;
    if (const Json* p = body.find("priority")) {
        const std::optional<Lane> parsed = parseLane(p->asString());
        if (!parsed)
            return errorResponse(400,
                                 "priority must be \"interactive\" or "
                                 "\"batch\", got \"" +
                                     p->asString() + "\"");
        lane = *parsed;
    }
    manifest.meta["priority"] = laneName(lane);

    std::string execution = "local";
    if (const Json* e = body.find("execution"))
        execution = e->asString();
    if (execution != "local" && execution != "remote")
        return errorResponse(400, "execution must be \"local\" or "
                                  "\"remote\", got \"" +
                                      execution + "\"");
    std::size_t shards = 0;
    if (execution == "remote") {
        shards = 2;
        if (const Json* s = body.find("shards"))
            shards = static_cast<std::size_t>(s->asU64());
        if (shards < 1 || shards > manifest.size())
            return errorResponse(
                400, "shards must be in [1, " +
                         std::to_string(manifest.size()) + "]");
    } else if (body.find("shards")) {
        return errorResponse(400, "shards applies to remote jobs only");
    }

    const std::string id =
        jobs_.create(tenant, manifest, execution == "remote", shards);
    if (journal_)
        journal_->admit(id, tenant, execution == "remote", shards,
                        manifest);
    if (execution == "remote") {
        orch_.enqueueJob(id, shards);
    } else {
        startLocalJob(id, manifest);
    }
    GGA_INFORM("serve: job ", id, " (", tenant, ", ", execution, ", ",
               manifest.size(), " units) admitted");
    return jsonResponse(202, jobs_.snapshot(id)->toJson());
}

void
Service::startLocalJob(const std::string& id, const Manifest& manifest)
{
    submitManifest(
        session_, manifest,
        [this, id](const UnitEvent& ev) { jobs_.unitDone(id, ev); });
}

HttpResponse
Service::jobStatus(const HttpRequest& req, const std::string& id)
{
    const std::optional<std::uint64_t> waitMs =
        parseUnsigned<std::uint64_t>(req.queryOr("wait_ms", "0"));
    const std::optional<std::uint64_t> since =
        parseUnsigned<std::uint64_t>(req.queryOr("since", "0"));
    if (!waitMs || !since)
        return errorResponse(400, "wait_ms/since must be integers");
    std::optional<JobSnapshot> snap =
        *waitMs == 0
            ? jobs_.snapshot(id)
            : jobs_.waitForChange(
                  id, *since,
                  static_cast<unsigned>(std::min<std::uint64_t>(
                      *waitMs, 60000)));
    if (!snap)
        return errorResponse(404, "no such job: " + id);
    return jsonResponse(200, snap->toJson());
}

HttpResponse
Service::jobResults(const HttpRequest& req, const std::string& id)
{
    const std::optional<std::uint64_t> after =
        parseUnsigned<std::uint64_t>(req.queryOr("after", "0"));
    if (!after)
        return errorResponse(400, "after must be an integer");
    const std::optional<JobTable::RowsPage> page =
        jobs_.resultsAfter(id, static_cast<std::size_t>(*after));
    if (!page)
        return errorResponse(404, "no such job: " + id);
    Json rows = Json::array();
    for (const UnitResult& r : page->rows)
        rows.push(r.toJson());
    Json j = Json::object();
    j.set("rows", std::move(rows));
    j.set("next", Json(static_cast<std::uint64_t>(page->next)));
    j.set("done", Json(page->terminal));
    return jsonResponse(200, std::move(j));
}

HttpResponse
Service::jobRender(const HttpRequest& req, const std::string& id)
{
    const std::optional<JobSnapshot> snap = jobs_.snapshot(id);
    if (!snap)
        return errorResponse(404, "no such job: " + id);
    if (snap->state != JobState::Done)
        return errorResponse(409, "job " + id + " is " +
                                      jobStateName(snap->state) +
                                      "; render needs done");
    const std::optional<ResultSet> results = jobs_.finalResults(id);
    const std::optional<Manifest> manifest = jobs_.manifestOf(id);
    if (!results || !manifest)
        return errorResponse(404, "no such job: " + id);
    // Throws EvalError (-> 400) when the manifest carries no figure
    // meta, e.g. a single-plan job.
    const FigureSet set = figureSetFromManifest(*manifest);
    const bool csv = req.queryOr("csv", "0") == "1";
    return HttpResponse{200, "text/plain",
                        renderFigure(set, *results, csv), {}};
}

HttpResponse
Service::workerEndpoint(const HttpRequest& req, const std::string& action)
{
    const Json body = Json::parse(req.body);
    if (action == "register") {
        std::string name;
        if (const Json* n = body.find("name"))
            name = n->asString();
        Json j = Json::object();
        j.set("worker", Json(orch_.registerWorker(name)));
        j.set("lease_ms", Json(static_cast<std::uint64_t>(
                              opts_.retry.leaseMs)));
        return jsonResponse(200, std::move(j));
    }
    const Json* workerJson = body.find("worker");
    if (!workerJson)
        return errorResponse(400, "body needs \"worker\"");
    const std::string worker = workerJson->asString();
    if (!orch_.knownWorker(worker))
        return errorResponse(404, "unknown worker: " + worker);

    if (action == "poll") {
        const std::optional<Assignment> a = orch_.poll(worker);
        if (!a)
            return HttpResponse{204, "application/json", "", {}};
        Json j = Json::object();
        j.set("job", Json(a->job));
        j.set("shard", Json(static_cast<std::uint64_t>(a->shard)));
        j.set("shard_count",
              Json(static_cast<std::uint64_t>(a->shardCount)));
        j.set("manifest", a->manifest.toJson());
        return jsonResponse(200, std::move(j));
    }
    if (action != "parts" && action != "renew")
        return errorResponse(404, "unknown worker action: " + action);
    const Json* jobJson = body.find("job");
    const Json* shardJson = body.find("shard");
    if (!jobJson || !shardJson)
        return errorResponse(400, "body needs \"job\" and \"shard\"");
    const std::string job = jobJson->asString();
    const auto shard = static_cast<std::size_t>(shardJson->asU64());
    if (action == "renew") {
        if (!orch_.renew(worker, job, shard))
            return errorResponse(409, worker + " holds no lease on shard " +
                                          std::to_string(shard) + " of " +
                                          job);
        Json j = Json::object();
        j.set("status", Json("renewed"));
        return jsonResponse(200, std::move(j));
    }
    const Json* resultsJson = body.find("results");
    const Json* errorJson = body.find("error");
    if (!resultsJson == !errorJson)
        return errorResponse(400, "body needs \"job\", \"shard\" and "
                                  "one of \"results\" or \"error\"");
    std::string why;
    Orchestrator::PartOutcome outcome;
    if (errorJson) {
        // The worker could not run its shard: a rejected part.
        why = errorJson->asString();
        outcome = orch_.partFailed(worker, job, shard, why);
    } else {
        std::optional<std::uint64_t> checksum;
        if (const Json* c = body.find("checksum"))
            checksum = c->asU64();
        outcome = orch_.partArrived(worker, job, shard,
                                    ResultSet::fromJson(*resultsJson), &why,
                                    checksum);
    }
    switch (outcome) {
    case Orchestrator::PartOutcome::Accepted:
    case Orchestrator::PartOutcome::Duplicate: {
        Json j = Json::object();
        j.set("status",
              Json(outcome == Orchestrator::PartOutcome::Accepted
                       ? "accepted"
                       : "duplicate"));
        return jsonResponse(200, std::move(j));
    }
    case Orchestrator::PartOutcome::Rejected:
        return errorResponse(400, "part rejected: " + why);
    case Orchestrator::PartOutcome::Unknown:
        return errorResponse(404, "unknown job/shard");
    }
    return errorResponse(500, "unreachable");
}

HttpResponse
Service::statsResponse()
{
    const GraphStore::Counters gc = session_.graphs().counters();
    Json store = Json::object();
    store.set("hits", Json(gc.hits));
    store.set("misses", Json(gc.misses));
    store.set("evictions", Json(gc.evictions));
    store.set("entries", Json(static_cast<std::uint64_t>(gc.entries)));
    store.set("resident_bytes",
              Json(static_cast<std::uint64_t>(gc.residentBytes)));
    store.set("budget_bytes",
              Json(static_cast<std::uint64_t>(gc.budgetBytes)));

    const TaskPool::Stats es = session_.executorStats();
    Json exec = Json::object();
    exec.set("threads", Json(session_.threads()));
    exec.set("queue_depth", Json(static_cast<std::uint64_t>(
                                es.interactiveDepth + es.batchDepth)));
    exec.set("running", Json(es.running));
    exec.set("completed_total", Json(es.completedTotal));
    exec.set("interactive_depth",
             Json(static_cast<std::uint64_t>(es.interactiveDepth)));
    exec.set("batch_depth", Json(static_cast<std::uint64_t>(es.batchDepth)));
    exec.set("steals_total", Json(es.stealsTotal));
    exec.set("batch_niced", Json(es.batchNiced));

    const HttpServer::Stats hs = http_.stats();
    Json http = Json::object();
    http.set("connections_live",
             Json(static_cast<std::uint64_t>(hs.connectionsLive)));
    http.set("connections_accepted_total",
             Json(hs.connectionsAcceptedTotal));
    http.set("connections_rejected_total",
             Json(hs.connectionsRejectedTotal));

    Json j = jobs_.statsJson();
    j.set("graph_store", std::move(store));
    j.set("executor", std::move(exec));
    j.set("http", std::move(http));
    j.set("orchestrator", orch_.statsJson());
    if (journal_)
        j.set("journal", journal_->statsJson());
    if (limiter_.enabled())
        j.set("rate_limiter", limiter_.statsJson());
    j.set("faults", faults::statsJson());
    return jsonResponse(200, std::move(j));
}

} // namespace gga
