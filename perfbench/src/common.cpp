#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "eval/run.hpp"
#include "support/rng.hpp"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb(int pid)
{
    const std::string path = pid == 0 ? std::string("/proc/self/status")
                                      : "/proc/" + std::to_string(pid) +
                                            "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in " + path);
}

std::uint64_t
Tracer::newId()
{
    return enabled_ ? next_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void
Tracer::record(std::uint64_t id, std::uint64_t parent, std::uint64_t req,
               const char* layer, std::string name, std::int64_t t0,
               std::int64_t t1)
{
    if (!enabled_)
        return;
    gga::MutexLock lock(mu_);
    spans_.push_back(Span{id, parent, req, layer, std::move(name), t0, t1});
}

void
Tracer::dump(const std::string& path) const
{
    std::string text;
    gga::MutexLock lock(mu_);
    for (const Span& s : spans_) {
        gga::Json j = gga::Json::object();
        j.set("id", gga::Json(s.id));
        j.set("parent", gga::Json(s.parent));
        j.set("req", gga::Json(s.req));
        j.set("layer", gga::Json(s.layer));
        j.set("name", gga::Json(s.name));
        j.set("t0", gga::Json(static_cast<std::int64_t>(s.t0)));
        j.set("t1", gga::Json(static_cast<std::int64_t>(s.t1)));
        text += j.dump() + "\n";
    }
    gga::writeTextFile(path, text);
}

Scope::Scope(Tracer& tracer, const char* layer, std::string name,
             std::uint64_t parent, std::uint64_t req)
    : tracer_(tracer), layer_(layer), name_(std::move(name)),
      id_(tracer.newId()), parent_(parent), req_(req), t0_(nowNs())
{
}

Scope::~Scope()
{
    tracer_.record(id_, parent_, req_, layer_, std::move(name_), t0_,
                   nowNs());
}

namespace {

template <typename T>
std::string
firstMismatch(const char* what, const std::vector<T>& got,
              const std::vector<T>& want)
{
    if (got.size() != want.size())
        return std::string(what) + " has " + std::to_string(got.size()) +
               " entries, expected " + std::to_string(want.size());
    for (std::size_t v = 0; v < got.size(); ++v) {
        if (got[v] != want[v]) {
            std::ostringstream os;
            os << what << " of vertex " << v << " is " << got[v]
               << ", expected " << want[v];
            return os.str();
        }
    }
    return "";
}

/** |got - want| within the functional tests' relative tolerance. */
std::string
closeEnough(const char* what, std::size_t v, double got, double want,
            double abs_tol, double rel_tol)
{
    if (std::abs(got - want) <= std::max(abs_tol, rel_tol * std::abs(want)))
        return "";
    std::ostringstream os;
    os.precision(17);
    os << what << " of vertex " << v << " is " << got << ", expected "
       << want;
    return os.str();
}

} // namespace

std::string
Oracle::check(const gga::RunOutcome& out, const gga::CsrGraph& g,
              const std::string& input)
{
    if (const gga::PrOutput* pr = out.pr()) {
        auto it = pagerank_.find(input);
        if (it == pagerank_.end())
            it = pagerank_
                     .emplace(input, gga::ref::pagerank(g, gga::kPrIterations))
                     .first;
        const std::vector<double>& want = it->second;
        if (pr->ranks.size() != want.size())
            return "PR output has the wrong length";
        // PageRank runs in float on the simulated GPU and in double on
        // the reference: 1e-3 relative (1e-6 absolute floor), as in the
        // functional tests.
        for (std::size_t v = 0; v < want.size(); ++v) {
            const std::string why =
                closeEnough("PR rank", v, pr->ranks[v], want[v], 1e-6, 1e-3);
            if (!why.empty())
                return why;
        }
        return "";
    }
    if (const gga::SsspOutput* sssp = out.sssp()) {
        auto it = dijkstra_.find(input);
        if (it == dijkstra_.end())
            it = dijkstra_.emplace(input, gga::ref::dijkstra(g, 0)).first;
        return firstMismatch("SSSP distance", sssp->dist, it->second);
    }
    if (const gga::MisOutput* mis = out.mis())
        return gga::ref::validMis(g, mis->state)
                   ? ""
                   : "MIS output is not a maximal independent set";
    if (const gga::ClrOutput* clr = out.clr())
        return gga::ref::validColoring(g, clr->colors)
                   ? ""
                   : "CLR output is not a proper coloring";
    if (const gga::BcOutput* bc = out.bc()) {
        auto it = brandes_.find(input);
        if (it == brandes_.end())
            it = brandes_.emplace(input, gga::ref::brandes(g, 0)).first;
        const gga::ref::BcRef& want = it->second;
        if (std::string why = firstMismatch("BC level", bc->level, want.level);
            !why.empty())
            return why;
        if (bc->sigma.size() != want.sigma.size() ||
            bc->delta.size() != want.delta.size())
            return "BC output has the wrong length";
        for (std::size_t v = 0; v < want.sigma.size(); ++v) {
            std::string why = closeEnough("BC sigma", v, bc->sigma[v],
                                          want.sigma[v], 1e-9, 1e-9);
            if (why.empty())
                why = closeEnough("BC delta", v, bc->delta[v], want.delta[v],
                                  1e-9, 1e-9);
            if (!why.empty())
                return why;
        }
        return "";
    }
    if (const gga::CcOutput* cc = out.cc()) {
        auto it = components_.find(input);
        if (it == components_.end())
            it = components_.emplace(input, gga::ref::components(g)).first;
        return gga::ref::samePartition(cc->labels, it->second)
                   ? ""
                   : "CC labels do not match the union-find partition";
    }
    return "run produced no functional output";
}

gga::UnitResult
unitRow(const std::string& key, const gga::RunOutcome& outcome)
{
    gga::UnitResult r;
    r.key = key;
    r.run = outcome.result;
    r.output = gga::summarizeOutput(outcome);
    return r;
}

std::uint64_t
workloadSeed(std::uint64_t seed, const std::string& workload)
{
    const std::uint64_t h = gga::fnv1a(workload.data(), workload.size());
    return 1 + gga::hashCombine(seed, h) % kSeedPool;
}

bool
seededApp(gga::AppId app)
{
    return app == gga::AppId::Mis || app == gga::AppId::Clr;
}

} // namespace perfbench
