/**
 * @file
 * Shared pieces of the benchmark driver: options, the span tracer, the
 * functional-output oracle, and the three workload entry points.
 *
 * The driver measures; it does not reduce. Each workload returns a raw
 * run record (per-setup times, per-unit and per-request timestamps,
 * exact simulated counts, check failures) that perfbench/metrics.py
 * turns into the reported metrics.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "apps/reference.hpp"
#include "eval/result_set.hpp"
#include "support/json.hpp"
#include "support/thread_annotations.hpp"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10; ///< measurement budget; at least one pass runs
    bool trace = false;  ///< record spans (the per-layer run)
    unsigned setups = 5; ///< set-up repetitions; setup_s is their median
    std::string serveBin; ///< gga_serve executable (serve-mixed)
    std::string workDir;  ///< scratch space for server state and logs
    /** Run every MIS/CLR workload under every pooled seed (recording the
     *  simulated-statistics goldens) instead of the seed's selection. */
    bool coverSeeds = false;
};

/** Nanoseconds on the steady clock: the time base of samples and spans. */
std::int64_t nowNs();

/** Seconds between two nowNs() stamps. */
inline double
secondsBetween(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** Peak resident set (VmHWM) of @p pid, or of this process when 0, MiB. */
double peakRssMb(int pid = 0);

/**
 * In-memory span log. The benchmark records a span around each call it
 * makes into a layer; spans stay in memory until dump(). A disabled
 * tracer hands out id 0 and records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** A fresh span id (0 when disabled). */
    std::uint64_t newId();

    /**
     * Record one finished span. @p req groups the spans of one request
     * (a setup, a sweep pass, or a served job).
     */
    void record(std::uint64_t id, std::uint64_t parent, std::uint64_t req,
                const char* layer, std::string name, std::int64_t t0,
                std::int64_t t1);

    /** Write every span as one JSON object per line. */
    void dump(const std::string& path) const;

  private:
    struct Span
    {
        std::uint64_t id, parent, req;
        const char* layer;
        std::string name;
        std::int64_t t0, t1;
    };

    const bool enabled_;
    std::atomic<std::uint64_t> next_{1};
    mutable gga::Mutex mu_;
    std::vector<Span> spans_ GGA_GUARDED_BY(mu_);
};

/** A span over a synchronous scope. */
class Scope
{
  public:
    Scope(Tracer& tracer, const char* layer, std::string name,
          std::uint64_t parent, std::uint64_t req);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer& tracer_;
    const char* layer_;
    std::string name_;
    std::uint64_t id_, parent_, req_;
    std::int64_t t0_;
};

/**
 * Checks functional outputs against the sequential CPU references in
 * apps/reference. References are computed once per input and reused by
 * every configuration that ran on it.
 */
class Oracle
{
  public:
    /** "" when @p out is correct for graph @p g (named @p input), else
     *  what is wrong. */
    std::string check(const gga::RunOutcome& out, const gga::CsrGraph& g,
                      const std::string& input);

  private:
    std::map<std::string, std::vector<double>> pagerank_;
    std::map<std::string, std::vector<std::uint32_t>> dijkstra_;
    std::map<std::string, gga::ref::BcRef> brandes_;
    std::map<std::string, std::vector<std::uint32_t>> components_;
};

/** The unit's result row (exact simulated counts plus output digest). */
gga::UnitResult unitRow(const std::string& key,
                        const gga::RunOutcome& outcome);

/**
 * The MIS/CLR unit seed of one workload under benchmark seed @p seed:
 * one of kSeedPool values, so the simulated-statistics goldens cover
 * every input a seed can select.
 */
std::uint64_t workloadSeed(std::uint64_t seed, const std::string& workload);

inline constexpr std::uint64_t kSeedPool = 4;

/** Apps whose kernels consume the unit seed. */
bool seededApp(gga::AppId app);

gga::Json runSweepFig5(const Options& opts, Tracer& tracer);
gga::Json runSimAmz(const Options& opts, Tracer& tracer);
gga::Json runServeMixed(const Options& opts, Tracer& tracer);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
