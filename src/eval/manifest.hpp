/**
 * @file
 * Manifest: a flat, serializable list of WorkUnits — the unit of
 * distribution for the evaluation pipeline.
 *
 * Every figure/table/bench is expressed as a manifest instead of an
 * imperative loop over Session: enumerate the matrix once, shard it
 * across workers round-robin, round-trip it through JSON, and execute
 * each shard anywhere. Because
 * WorkUnit keys are deterministic and the simulator is deterministic,
 * the merged results never depend on the shard count.
 */

#ifndef GGA_EVAL_MANIFEST_HPP
#define GGA_EVAL_MANIFEST_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

#include "eval/work_unit.hpp"

namespace gga {

class Manifest
{
  public:
    /** The units, in enumeration order (the in-process execution order). */
    const std::vector<WorkUnit>& units() const { return units_; }

    /**
     * Free-form metadata carried through JSON (e.g. figure="fig5",
     * scale="0.1") so render tools can rebuild the figure structure from
     * the manifest alone. Keys serialize sorted (std::map) — dumps are
     * deterministic.
     */
    std::map<std::string, std::string> meta;

    bool empty() const { return units_.empty(); }
    std::size_t size() const { return units_.size(); }

    /** Append @p unit; throws EvalError if its key is already present. */
    void add(WorkUnit unit);

    /**
     * Append @p unit unless an identical key is already present; returns
     * whether it was added. The dedup point for figure builders whose
     * sweeps overlap (e.g. the partial-design-space full and restricted
     * sweeps share their non-relaxed configurations).
     */
    bool addUnique(WorkUnit unit);

    bool contains(const std::string& key) const;

    /**
     * The sub-manifest shard @p index of @p count, round-robin: unit i
     * goes to shard i % count, in enumeration order. Every unit lands in
     * exactly one shard, and the union over all indices is the whole
     * manifest. Throws EvalError on index >= count or count == 0.
     */
    Manifest shard(std::size_t index, std::size_t count) const;

    /** One distinct input graph a manifest's units reference. */
    struct GraphInput
    {
        std::optional<GraphPreset> preset; ///< absent for file inputs
        std::string path;                  ///< empty for preset inputs
        double scale = 1.0;

        bool operator==(const GraphInput&) const = default;
    };

    /**
     * The distinct input graphs this manifest's units need, in first-use
     * order — preset inputs deduplicated at GraphStore scale-key
     * granularity (quantizeScale), file inputs by path. The prebuild
     * seam: gga_graphs snapshots exactly this set into a cache directory
     * before the workers start.
     */
    std::vector<GraphInput> graphInputs() const;

    /**
     * Append one unit per hardware point in @p points for the same
     * (app, input, config) cell — the ablation-bench helper. Returns the
     * keys of the appended units in point order, for result lookup.
     */
    std::vector<std::string>
    sweepParams(AppId app, GraphPreset preset, const SystemConfig& config,
                const std::vector<SimParams>& points, double scale,
                bool collect_outputs = false);

    Json toJson() const;
    static Manifest fromJson(const Json& j); ///< throws EvalError

    /** File round trip (pretty-printed JSON). Throws on IO failure. */
    void save(const std::string& file_path) const;
    static Manifest load(const std::string& file_path);

    bool
    operator==(const Manifest& o) const
    {
        return units_ == o.units_ && meta == o.meta;
    }

  private:
    /** Append without a duplicate check (units known distinct). */
    void append(WorkUnit unit);

    std::vector<WorkUnit> units_;
    /** Key index: O(log n) duplicate checks instead of re-deriving every
     *  stored unit's key per insertion. */
    std::set<std::string> keys_;
};

} // namespace gga

#endif // GGA_EVAL_MANIFEST_HPP
