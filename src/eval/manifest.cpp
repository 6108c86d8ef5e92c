#include "eval/manifest.hpp"

#include <utility>

#include "api/graph_store.hpp"

namespace gga {

void
Manifest::append(WorkUnit unit)
{
    keys_.insert(unit.key());
    units_.push_back(std::move(unit));
}

void
Manifest::add(WorkUnit unit)
{
    if (contains(unit.key()))
        throw EvalError("duplicate work unit '" + unit.key() +
                        "' in manifest");
    append(std::move(unit));
}

bool
Manifest::addUnique(WorkUnit unit)
{
    if (contains(unit.key()))
        return false;
    append(std::move(unit));
    return true;
}

bool
Manifest::contains(const std::string& key) const
{
    return keys_.count(key) != 0;
}

Manifest
Manifest::shard(std::size_t index, std::size_t count) const
{
    if (count == 0)
        throw EvalError("shard count must be positive");
    if (index >= count)
        throw EvalError("shard index " + std::to_string(index) +
                        " out of range for " + std::to_string(count) +
                        " shards");
    Manifest out;
    out.meta = meta;
    out.meta["shard"] =
        std::to_string(index) + "/" + std::to_string(count);
    for (std::size_t i = index; i < units_.size(); i += count)
        out.append(units_[i]);
    return out;
}

std::vector<Manifest::GraphInput>
Manifest::graphInputs() const
{
    std::vector<GraphInput> inputs;
    std::set<std::pair<int, std::int64_t>> seen_presets;
    std::set<std::string> seen_paths;
    for (const WorkUnit& u : units_) {
        if (u.preset) {
            // Dedup at the GraphStore's key granularity so prebuilding
            // this list warms exactly the entries the workers will ask
            // for — no more, no less.
            const auto key =
                std::make_pair(static_cast<int>(*u.preset),
                               GraphStore::quantizeScale(u.scale));
            if (!seen_presets.insert(key).second)
                continue;
            inputs.push_back(GraphInput{u.preset, {}, u.scale});
        } else {
            if (!seen_paths.insert(u.path).second)
                continue;
            inputs.push_back(GraphInput{std::nullopt, u.path, 1.0});
        }
    }
    return inputs;
}

std::vector<std::string>
Manifest::sweepParams(AppId app, GraphPreset preset,
                      const SystemConfig& config,
                      const std::vector<SimParams>& points, double scale,
                      bool collect_outputs)
{
    std::vector<std::string> keys;
    keys.reserve(points.size());
    for (const SimParams& p : points) {
        WorkUnit u;
        u.app = app;
        u.preset = preset;
        u.scale = scale;
        u.config = config;
        u.params = p;
        u.collectOutputs = collect_outputs;
        keys.push_back(u.key());
        add(std::move(u));
    }
    return keys;
}

Json
Manifest::toJson() const
{
    Json j = Json::object();
    if (!meta.empty()) {
        Json m = Json::object();
        for (const auto& [k, v] : meta)
            m.set(k, v);
        j.set("meta", std::move(m));
    }
    Json units = Json::array();
    for (const WorkUnit& u : units_)
        units.push(u.toJson());
    j.set("units", std::move(units));
    return j;
}

Manifest
Manifest::fromJson(const Json& j)
{
    // Strict like WorkUnit::fromJson: a misplaced member in a
    // hand-edited manifest must fail loudly, not be dropped.
    for (const auto& [key, value] : j.asObject()) {
        if (key != "meta" && key != "units")
            throw EvalError("unknown manifest member '" + key + "'");
    }
    Manifest out;
    if (const Json* m = j.find("meta")) {
        for (const auto& [k, v] : m->asObject())
            out.meta[k] = v.asString();
    }
    for (const Json& u : j.at("units").asArray())
        out.add(WorkUnit::fromJson(u));
    return out;
}

void
Manifest::save(const std::string& file_path) const
{
    writeTextFile(file_path, toJson().dump(2) + "\n");
}

Manifest
Manifest::load(const std::string& file_path)
{
    return fromJson(Json::parse(readTextFile(file_path)));
}

} // namespace gga
