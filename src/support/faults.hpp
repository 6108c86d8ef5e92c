/**
 * @file
 * Deterministic fault injection.
 *
 * Every recovery path in gga_serve — short socket reads, corrupt worker
 * parts, expired leases, a worker dying on an assignment, crashes
 * between journal appends — plus the
 * executor's scheduling perturbation point (pool.yield) is reachable
 * on demand through named *sites* compiled into the hot seams. A site is
 * inert (one atomic load) until armed through the GGA_FAULTS environment
 * variable or configure():
 *
 *   GGA_FAULTS="seed=7,worker.part.corrupt=1,http.read.fail=3+"
 *
 * Grammar: comma-separated entries. "seed=S" seeds the corruption RNG;
 * every other entry is "site=trigger" where trigger is
 *
 *   N      fire on the Nth hit of the site only (1-based)
 *   N+     fire on the Nth hit and every later one
 *   N/M    fire on the Nth hit and every Mth after it
 *
 * Injection is counter-based and seeded (SplitMix64, no rand()), so a
 * failing run replays exactly — the same spec against the same request
 * sequence injects the same faults at the same points. Crash sites call
 * _exit(kFaultCrashExit), skipping atexit/destructors: the closest
 * userspace approximation of SIGKILL, which is what the journal's
 * recovery guarantees are stated against.
 *
 * Thread-safe; all state is process-global (the sites it arms span the
 * server, worker client, and journal layers).
 */

#ifndef GGA_SUPPORT_FAULTS_HPP
#define GGA_SUPPORT_FAULTS_HPP

#include <string>

#include "support/json.hpp"

namespace gga::faults {

/** Exit code of a crashPoint() hit (crash.worker.assignment,
 *  crash.journal.*). */
constexpr int kFaultCrashExit = 41;

/**
 * Replace the active fault plan. "" disarms every site and resets all
 * counters. Throws std::invalid_argument on a malformed spec. Wins over
 * (and suppresses) the GGA_FAULTS environment variable.
 */
void configure(const std::string& spec);

/**
 * Count a hit of @p site and report whether its trigger fires. False on
 * every site when no plan is armed (the fast path: one relaxed load).
 */
bool fire(const char* site);

/** fire() && _exit(kFaultCrashExit) — a simulated hard crash. */
void crashPoint(const char* site);

/**
 * fire() && flip one seeded pseudo-random byte of @p data in place.
 * Returns whether the mutation happened. No-op on empty data.
 */
bool corrupt(const char* site, std::string& data);

/** fire() && drop the tail half of @p data. Returns whether it fired. */
bool truncate(const char* site, std::string& data);

/** {"enabled": ..., "injected_total": N, "by_site": {...}} for /stats. */
Json statsJson();

/** Total injections since the last configure(). */
std::uint64_t injectedTotal();

} // namespace gga::faults

#endif // GGA_SUPPORT_FAULTS_HPP
