/**
 * @file
 * Manifest execution on the in-process Session executor — the one path
 * every batch takes: the worker CLI, gga_serve's local jobs, the benches
 * and the figures.
 *
 * submitManifest posts every unit on the session's TaskPool in manifest
 * order, as one postAll batch on the manifest's lane, and reports each
 * unit as it finishes; runManifest waits for those reports and returns
 * the key-sorted ResultSet. Because every unit is an independent
 * deterministic simulation, the results are bit-identical at any
 * executor width and any sharding of the manifest.
 */

#ifndef GGA_EVAL_RUN_HPP
#define GGA_EVAL_RUN_HPP

#include <functional>

#include "api/session.hpp"
#include "eval/manifest.hpp"
#include "eval/result_set.hpp"

namespace gga {

/** Typed digest of a run's functional output (empty optional if none). */
std::optional<OutputSummary> summarizeOutput(const RunOutcome& outcome);

/** The RunPlan a work unit executes as (params default: SimParams{}). */
RunPlan planForUnit(const WorkUnit& unit);

/**
 * The executor lane a manifest's units run on: its meta "priority" entry
 * parsed as a lane name, defaulting to Lane::Batch (manifests are the
 * bulk work the interactive lane overtakes). An unparseable value warns
 * and falls back to batch.
 */
Lane manifestLane(const Manifest& manifest);

/**
 * One unit's completion notice. Exactly one of result/error is
 * meaningful: on success @c result is set; when the unit cannot run,
 * @c error names the unit and the reason and @c result stays empty.
 * Only a plan that fails Session::validate reads "invalid run plan: ";
 * a valid plan whose input cannot be built says so instead.
 */
struct UnitEvent
{
    std::size_t index = 0; ///< position in the manifest
    std::string key;       ///< WorkUnit::key()
    std::optional<UnitResult> result;
    std::string error;
    std::string appName; ///< "PR", "BC", ... (empty on an error)
    double millis = 0;   ///< wall time of the unit's run
};

/**
 * Post every unit of @p manifest on @p session's executor and invoke
 * @p onUnit as each one finishes, in completion order (not manifest
 * order). The callback runs on executor threads — possibly several at
 * once — so it must be thread-safe and cheap; a unit that cannot run
 * produces an error event instead of throwing. The caller is
 * responsible for counting manifest.size() events before tearing
 * anything down, and the Session (plus whatever the callback captures)
 * must stay alive until then.
 */
void submitManifest(Session& session, const Manifest& manifest,
                    std::function<void(const UnitEvent&)> onUnit);

/**
 * submitManifest, then wait for every unit: the blocking in-process
 * path. Throws EvalError naming the first failed unit in manifest
 * order.
 */
ResultSet runManifest(Session& session, const Manifest& manifest);

} // namespace gga

#endif // GGA_EVAL_RUN_HPP
