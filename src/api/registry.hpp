/**
 * @file
 * AppRegistry: the queryable table of applications behind the Plan/Session
 * API.
 *
 * Each application translation unit (src/apps/<app>.cpp) self-registers a
 * complete entry — its runner and its AlgoProperties — via a
 * registerXxxApp hook. Which configurations an app accepts follows from
 * its traversal kind, so callers can enumerate, query, and filter the
 * design space through one table.
 */

#ifndef GGA_API_REGISTRY_HPP
#define GGA_API_REGISTRY_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/outputs.hpp"
#include "apps/app.hpp"
#include "graph/csr.hpp"
#include "model/algo_props.hpp"
#include "model/config.hpp"
#include "sim/params.hpp"

namespace gga {

class AppRegistry
{
  public:
    /**
     * Runs the app on the graph under the configuration and, when the
     * AppOutput* is non-null, moves the app's output into it. The
     * std::uint64_t is the run's RNG seed (see RunPlan::seed); apps
     * without stochastic choices ignore it, and seed 0 must reproduce
     * the paper runs exactly (the determinism goldens pin this).
     */
    using RunnerFn = RunResult (*)(const CsrGraph&, const SystemConfig&,
                                   const SimParams&, std::uint64_t,
                                   AppOutput*);

    /** One registered application. */
    struct Entry
    {
        AppId id{};
        std::string name;          ///< short uppercase name ("PR", ...)
        AlgoProperties properties; ///< paper Table III row
        RunnerFn run = nullptr;

        /**
         * Does this app accept @p cfg? A dynamic traversal requires
         * PushPull; a static one requires Push or Pull.
         */
        bool validConfig(const SystemConfig& cfg) const;

        /** validConfig's rule in words, for validation messages. */
        const char* configRequirement() const;
    };

    /** The process-wide registry with all built-in apps registered. */
    static const AppRegistry& instance();

    /** Add an entry (later registrations of the same id are rejected). */
    void add(Entry entry);

    /** Entry for @p app, or nullptr if not registered. */
    const Entry* find(AppId app) const;

    /** Entry for @p app; fatal if not registered. */
    const Entry& at(AppId app) const;

    /** Entry whose name matches @p name (case-sensitive), or nullptr. */
    const Entry* findByName(std::string_view name) const;

    /** All entries, in registration order. */
    const std::vector<Entry>& entries() const { return entries_; }

    std::size_t size() const { return entries_.size(); }

    /**
     * Configurations from @p candidates that @p app accepts — the
     * registry-backed replacement for hand-filtering allConfigs().
     */
    std::vector<SystemConfig>
    validConfigs(AppId app, const std::vector<SystemConfig>& candidates) const;

  private:
    std::vector<Entry> entries_;
};

/**
 * Self-registration hooks, one per application translation unit. Each app
 * defines its own entry next to its kernels; the registry singleton
 * invokes these once.
 */
void registerPrApp(AppRegistry& reg);
void registerSsspApp(AppRegistry& reg);
void registerMisApp(AppRegistry& reg);
void registerClrApp(AppRegistry& reg);
void registerBcApp(AppRegistry& reg);
void registerCcApp(AppRegistry& reg);

} // namespace gga

#endif // GGA_API_REGISTRY_HPP
