/**
 * @file
 * WorkUnit: one serializable cell of the evaluation matrix.
 *
 * A work unit names everything needed to reproduce one simulator run in
 * any process — application, input (synthetic preset at a scale, or a
 * MatrixMarket file path), design-space configuration, an optional
 * hardware-parameter override, and a seed — plus a deterministic string
 * key that identifies the unit across manifest, shards, and merged
 * results. Execution anywhere yields bit-identical results because the
 * simulator itself is deterministic.
 */

#ifndef GGA_EVAL_WORK_UNIT_HPP
#define GGA_EVAL_WORK_UNIT_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "graph/presets.hpp"
#include "model/algo_props.hpp"
#include "model/config.hpp"
#include "sim/params.hpp"
#include "support/json.hpp"

namespace gga {

/**
 * Thrown by the evaluation pipeline on malformed manifests/result sets
 * and on merge conflicts (duplicate or missing units). An exception, not
 * a fatal: a bad shard file from disk is user input the worker/merge
 * tools must be able to report cleanly, and tests must be able to catch.
 */
class EvalError : public std::runtime_error
{
  public:
    explicit EvalError(const std::string& why) : std::runtime_error(why) {}
};

/** One (app, input, config, params, seed) cell of the evaluation matrix. */
struct WorkUnit
{
    AppId app = AppId::Pr;
    /** Exactly one of preset/path identifies the input graph. */
    std::optional<GraphPreset> preset;
    std::string path;  ///< MatrixMarket file; empty for preset inputs
    double scale = 1.0; ///< preset scale in (0, 1]; 1.0 for file inputs
    SystemConfig config;
    /** Hardware point; absent = SimParams{} (paper Table IV). */
    std::optional<SimParams> params;
    /** Reserved for stochastic apps; part of the unit's identity. */
    std::uint64_t seed = 0;
    /** Collect (and summarize) the app's functional output. */
    bool collectOutputs = false;

    bool operator==(const WorkUnit&) const = default;

    /** "RAJ" for presets, the path for files. */
    std::string inputName() const;

    /**
     * Deterministic identity string, e.g.
     * "PR-RAJ@SGR x100000" (preset RAJ at scale 0.1) with optional
     * " #s<seed>", " #p<params-hash>", and " +out" suffixes. Equal keys
     * mean identical runs; ResultSet ordering and merge are keyed on it.
     */
    std::string key() const;

    Json toJson() const;
    /** Throws EvalError on unknown names / malformed structure. */
    static WorkUnit fromJson(const Json& j);
};

/**
 * SimParams serialization: its two settable values, l1SizeKiB and
 * relaxedAtomicWindow, in that order.
 */
Json simParamsToJson(const SimParams& p);

/**
 * Rebuild SimParams from JSON: starts from the defaults and applies the
 * members present. Throws EvalError on any other member, a Table IV
 * constant included (a typo, or hardware this build cannot vary, must
 * not silently run the default system).
 */
SimParams simParamsFromJson(const Json& j);

/** FNV-1a over the canonical serialization (the "#p" key component). */
std::uint64_t simParamsHash(const SimParams& p);

} // namespace gga

#endif // GGA_EVAL_WORK_UNIT_HPP
