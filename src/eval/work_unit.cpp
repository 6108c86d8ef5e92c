#include "eval/work_unit.hpp"

#include <cinttypes>
#include <cstdio>
#include <limits>

#include "api/graph_store.hpp"
#include "support/rng.hpp"

namespace gga {

namespace {

/**
 * One X-macro list drives serialization, deserialization, and hashing:
 * the SimParams values a unit may set. The rest of Table IV is
 * constant, so a member outside this list is refused like a typo.
 */
#define GGA_SIM_PARAMS_FIELDS(X)                                            \
    X(l1SizeKiB)                                                            \
    X(relaxedAtomicWindow)

} // namespace

Json
simParamsToJson(const SimParams& p)
{
    Json j = Json::object();
#define GGA_X(field) j.set(#field, static_cast<std::uint64_t>(p.field));
    GGA_SIM_PARAMS_FIELDS(GGA_X)
#undef GGA_X
    return j;
}

SimParams
simParamsFromJson(const Json& j)
{
    SimParams p;
    for (const auto& [key, value] : j.asObject()) {
        bool known = false;
#define GGA_X(field)                                                        \
        if (key == #field) {                                                \
            const std::uint64_t v = value.asU64();                          \
            if (v > std::numeric_limits<decltype(p.field)>::max())          \
                throw EvalError("SimParams member '" + key + "' = " +       \
                                std::to_string(v) + " is out of range");    \
            p.field = static_cast<decltype(p.field)>(v);                    \
            known = true;                                                   \
        }
        GGA_SIM_PARAMS_FIELDS(GGA_X)
#undef GGA_X
        if (!known)
            throw EvalError("unknown SimParams member '" + key + "'");
    }
    return p;
}

std::uint64_t
simParamsHash(const SimParams& p)
{
    const std::string text = simParamsToJson(p).dump();
    return fnv1a(text.data(), text.size());
}

std::string
WorkUnit::inputName() const
{
    return preset ? presetName(*preset) : path;
}

std::string
WorkUnit::key() const
{
    std::string k = appName(app) + "-" + inputName() + "@" + config.name();
    if (preset) {
        // Quantized micro-units, not a formatted double, so every process
        // derives the same key from the same scale.
        k += " x" + std::to_string(GraphStore::quantizeScale(scale));
    }
    if (seed != 0)
        k += " #s" + std::to_string(seed);
    if (params) {
        char buf[24];
        std::snprintf(buf, sizeof buf, " #p%016" PRIx64,
                      simParamsHash(*params));
        k += buf;
    }
    if (collectOutputs)
        k += " +out";
    return k;
}

Json
WorkUnit::toJson() const
{
    Json j = Json::object();
    j.set("app", appName(app));
    Json input = Json::object();
    if (preset) {
        input.set("preset", presetName(*preset));
        input.set("scale", scale);
    } else {
        input.set("path", path);
    }
    j.set("input", std::move(input));
    j.set("config", config.name());
    if (seed != 0)
        j.set("seed", seed);
    if (params)
        j.set("params", simParamsToJson(*params));
    if (collectOutputs)
        j.set("collect_outputs", true);
    return j;
}

WorkUnit
WorkUnit::fromJson(const Json& j)
{
    // Strict like simParamsFromJson: a typo'd member in a hand-edited
    // manifest must not silently run a different unit than intended.
    for (const auto& [key, value] : j.asObject()) {
        if (key != "app" && key != "input" && key != "config" &&
            key != "seed" && key != "params" && key != "collect_outputs")
            throw EvalError("unknown work-unit member '" + key + "'");
    }
    WorkUnit u;
    const std::string& app_name = j.at("app").asString();
    const std::optional<AppId> app = appFromName(app_name);
    if (!app)
        throw EvalError("unknown application '" + app_name + "'");
    u.app = *app;

    const Json& input = j.at("input");
    for (const auto& [key, value] : input.asObject()) {
        if (key != "preset" && key != "scale" && key != "path")
            throw EvalError("unknown work-unit input member '" + key + "'");
    }
    if (const Json* preset = input.find("preset")) {
        if (input.find("path"))
            throw EvalError("work-unit input has both 'preset' and 'path'");
        u.preset = presetFromName(preset->asString());
        if (!u.preset)
            throw EvalError("unknown graph preset '" + preset->asString() +
                            "'");
        if (const Json* scale = input.find("scale"))
            u.scale = scale->asDouble();
        if (u.scale <= 0.0 || u.scale > 1.0)
            throw EvalError("work-unit scale must be in (0, 1]");
        if (const std::optional<std::string> why =
                GraphStore::presetError(*u.preset, u.scale))
            throw EvalError("work-unit " + *why);
    } else if (const Json* path = input.find("path")) {
        if (input.find("scale"))
            throw EvalError(
                "work-unit scale applies to preset inputs only");
        u.path = path->asString();
        if (u.path.empty())
            throw EvalError("work-unit input path must not be empty");
    } else {
        throw EvalError("work-unit input needs 'preset' or 'path'");
    }

    const std::string& cfg_name = j.at("config").asString();
    const std::optional<SystemConfig> cfg = tryParseConfig(cfg_name);
    if (!cfg)
        throw EvalError("malformed configuration name '" + cfg_name + "'");
    u.config = *cfg;
    if (!acceptsConfig(u.app, u.config))
        throw EvalError(appName(u.app) + " " + configRequirement(u.app) +
                        ", got " + u.config.name());

    if (const Json* seed = j.find("seed"))
        u.seed = seed->asU64();
    if (const Json* params = j.find("params")) {
        u.params = simParamsFromJson(*params);
        if (const std::optional<std::string> why = u.params->check())
            throw EvalError("work-unit params: " + *why);
    }
    if (const Json* collect = j.find("collect_outputs"))
        u.collectOutputs = collect->asBool();
    return u;
}

} // namespace gga
