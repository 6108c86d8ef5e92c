#include "support/faults.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>

#include "support/log.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"

namespace gga::faults {

namespace {

struct Trigger
{
    std::uint64_t at = 0;    ///< first firing hit (1-based)
    std::uint64_t every = 0; ///< 0: fire at `at` only; else repeat period
    bool openEnded = false;  ///< "N+": every hit from `at` on
};

struct SiteState
{
    Trigger trigger;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
};

struct Plan
{
    std::uint64_t seed = 1;
    std::map<std::string, SiteState> sites;
};

struct Registry
{
    Mutex mu;
    bool envChecked GGA_GUARDED_BY(mu) = false;
    Plan plan GGA_GUARDED_BY(mu);
};

Registry&
registry()
{
    static Registry r;
    return r;
}

/** Armed-at-all flag: the only thing the disarmed fast path touches. */
std::atomic<bool>&
armedFlag()
{
    static std::atomic<bool> armed{false};
    return armed;
}

/** Set once GGA_FAULTS has been consulted (or configure() ran). */
std::atomic<bool>&
envDoneFlag()
{
    static std::atomic<bool> done{false};
    return done;
}

std::uint64_t
parseU64Strict(const std::string& text, const std::string& entry)
{
    const std::optional<std::uint64_t> v = parseUnsigned<std::uint64_t>(text);
    if (!v)
        throw std::invalid_argument("GGA_FAULTS: bad count in '" + entry +
                                    "'");
    return *v;
}

Plan
parsePlan(const std::string& spec)
{
    Plan plan;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(',', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(begin, end - begin);
        begin = end + 1;
        if (entry.empty())
            continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size())
            throw std::invalid_argument(
                "GGA_FAULTS: entry '" + entry +
                "' is not site=trigger (or seed=S)");
        const std::string site = entry.substr(0, eq);
        std::string value = entry.substr(eq + 1);
        if (site == "seed") {
            plan.seed = parseU64Strict(value, entry);
            continue;
        }
        Trigger t;
        if (value.back() == '+') {
            t.openEnded = true;
            value.pop_back();
        }
        const std::size_t slash = value.find('/');
        if (slash != std::string::npos) {
            if (t.openEnded)
                throw std::invalid_argument(
                    "GGA_FAULTS: '" + entry + "' mixes N+ and N/M");
            t.at = parseU64Strict(value.substr(0, slash), entry);
            t.every = parseU64Strict(value.substr(slash + 1), entry);
            if (t.every == 0)
                throw std::invalid_argument(
                    "GGA_FAULTS: '" + entry + "' wants a period >= 1");
        } else {
            t.at = parseU64Strict(value, entry);
        }
        if (t.at == 0)
            throw std::invalid_argument(
                "GGA_FAULTS: '" + entry + "' wants a 1-based hit count");
        SiteState st;
        st.trigger = t;
        if (!plan.sites.emplace(site, st).second)
            throw std::invalid_argument("GGA_FAULTS: site '" + site +
                                        "' configured twice");
    }
    return plan;
}

/** Lazily adopt GGA_FAULTS the first time any site is consulted. */
void
initFromEnvLocked(Registry& r) GGA_REQUIRES(r.mu)
{
    if (r.envChecked)
        return;
    r.envChecked = true;
    const char* env = std::getenv("GGA_FAULTS");
    if (env == nullptr || *env == '\0')
        return;
    try {
        r.plan = parsePlan(env);
    } catch (const std::invalid_argument& err) {
        GGA_FATAL(err.what());
    }
    armedFlag().store(!r.plan.sites.empty(), std::memory_order_release);
    GGA_WARN("faults: armed from GGA_FAULTS='", env, "'");
}

} // namespace

void
configure(const std::string& spec)
{
    Plan plan = parsePlan(spec); // may throw; leave state untouched then
    Registry& r = registry();
    MutexLock lock(r.mu);
    r.envChecked = true; // an explicit plan overrides the environment
    r.plan = std::move(plan);
    armedFlag().store(!r.plan.sites.empty(), std::memory_order_release);
    envDoneFlag().store(true, std::memory_order_release);
}

bool
fire(const char* site)
{
    Registry& r = registry();
    if (!envDoneFlag().load(std::memory_order_acquire)) {
        MutexLock lock(r.mu);
        initFromEnvLocked(r);
        envDoneFlag().store(true, std::memory_order_release);
    }
    if (!armedFlag().load(std::memory_order_acquire))
        return false;
    MutexLock lock(r.mu);
    const auto it = r.plan.sites.find(site);
    if (it == r.plan.sites.end())
        return false;
    SiteState& st = it->second;
    const std::uint64_t hit = ++st.hits;
    const Trigger& t = st.trigger;
    bool firing = false;
    if (t.openEnded)
        firing = hit >= t.at;
    else if (t.every != 0)
        firing = hit >= t.at && (hit - t.at) % t.every == 0;
    else
        firing = hit == t.at;
    if (firing) {
        ++st.fired;
        GGA_WARN("faults: injecting '", site, "' (hit ", hit, ")");
    }
    return firing;
}

void
crashPoint(const char* site)
{
    if (!fire(site))
        return;
    GGA_WARN("faults: crashing at '", site, "' (_exit ", kFaultCrashExit,
             ")");
    ::_exit(kFaultCrashExit);
}

bool
corrupt(const char* site, std::string& data)
{
    if (!fire(site) || data.empty())
        return false;
    std::uint64_t seed;
    std::uint64_t fired;
    {
        Registry& r = registry();
        MutexLock lock(r.mu);
        seed = r.plan.seed;
        fired = r.plan.sites.at(site).fired;
    }
    // Derive the mutation from (seed, site, firing ordinal) so a replay
    // with the same spec flips the same byte the same way.
    SplitMix64 rng(hashCombine(fnv1a(site, std::strlen(site), seed), fired));
    const std::size_t pos =
        static_cast<std::size_t>(rng.next()) % data.size();
    const unsigned char flip =
        static_cast<unsigned char>(1 + (rng.next() & 0x7f));
    data[pos] = static_cast<char>(static_cast<unsigned char>(data[pos]) ^
                                  flip);
    return true;
}

bool
truncate(const char* site, std::string& data)
{
    if (!fire(site))
        return false;
    data.resize(data.size() / 2);
    return true;
}

Json
statsJson()
{
    Registry& r = registry();
    MutexLock lock(r.mu);
    std::uint64_t total = 0;
    Json bySite = Json::object();
    for (const auto& [site, st] : r.plan.sites) {
        total += st.fired;
        Json s = Json::object();
        s.set("hits", Json(st.hits));
        s.set("injected", Json(st.fired));
        bySite.set(site, std::move(s));
    }
    Json j = Json::object();
    j.set("enabled", Json(!r.plan.sites.empty()));
    j.set("injected_total", Json(total));
    j.set("by_site", std::move(bySite));
    return j;
}

std::uint64_t
injectedTotal()
{
    Registry& r = registry();
    MutexLock lock(r.mu);
    std::uint64_t total = 0;
    for (const auto& [site, st] : r.plan.sites) {
        (void)site;
        total += st.fired;
    }
    return total;
}

} // namespace gga::faults
