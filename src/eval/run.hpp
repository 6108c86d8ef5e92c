/**
 * @file
 * Manifest execution on the in-process Session executor — the fast path
 * the worker CLI and the bench binaries share.
 *
 * submitManifest enqueues every unit on the session's TaskPool in
 * manifest order (exactly the submitAll ordering the pre-manifest
 * benches used) without blocking; PendingManifest::collect gathers the
 * futures and returns the key-sorted ResultSet. Because every unit is an
 * independent deterministic simulation, the results are bit-identical at
 * any executor width and any sharding of the manifest.
 */

#ifndef GGA_EVAL_RUN_HPP
#define GGA_EVAL_RUN_HPP

#include <functional>
#include <future>
#include <vector>

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
 * A manifest whose runs are enqueued on a Session executor but not yet
 * gathered. Move-only; collect() may be called once; the Session must
 * outlive it.
 */
class PendingManifest
{
  public:
    /** Block until every unit finishes; throws EvalError if any plan
     *  failed validation (naming the unit). */
    ResultSet collect();

    std::size_t size() const { return keys_.size(); }

  private:
    friend PendingManifest submitManifest(Session&, const Manifest&);

    std::vector<std::string> keys_;
    std::vector<std::future<RunOutcome>> futures_;
};

/** Enqueue every unit of @p manifest on @p session's executor. */
PendingManifest submitManifest(Session& session, const Manifest& manifest);

/** submitManifest + collect: the blocking in-process fast path. */
ResultSet runManifest(Session& session, const Manifest& manifest);

/**
 * One unit's completion notice for streaming consumers (the resident
 * service's job table). Exactly one of result/error is meaningful: on
 * success @c result is set; when the unit's plan fails validation
 * @c error carries the reason and @c result stays empty.
 */
struct UnitEvent
{
    std::size_t index = 0; ///< position in the manifest
    std::string key;       ///< WorkUnit::key()
    std::optional<UnitResult> result;
    std::string error;
    std::string appName; ///< "PR", "BC", ... (empty on a plan error)
    double millis = 0;   ///< wall time of the unit's run
};

/**
 * Enqueue every unit of @p manifest and invoke @p onUnit as each one
 * finishes, in completion order (not manifest order). The callback runs
 * on executor threads — possibly several at once — so it must be
 * thread-safe and cheap; a unit whose plan fails validation produces an
 * error event instead of throwing. The caller is responsible for
 * counting manifest.size() events before tearing anything down, and the
 * Session (plus whatever the callback captures) must stay alive until
 * then. UnitResult rows carry the same data as runManifest's, so a
 * ResultSet assembled from the events is bit-identical to the blocking
 * path's.
 */
void submitManifestStreamed(Session& session, const Manifest& manifest,
                            std::function<void(const UnitEvent&)> onUnit);

} // namespace gga

#endif // GGA_EVAL_RUN_HPP
