#include "api/registry.hpp"

#include "support/log.hpp"

namespace gga {

bool
AppRegistry::Entry::validConfig(const SystemConfig& cfg) const
{
    const bool dynamic = properties.traversal == TraversalKind::Dynamic;
    return dynamic == (cfg.prop == UpdateProp::PushPull);
}

const char*
AppRegistry::Entry::configRequirement() const
{
    return properties.traversal == TraversalKind::Dynamic
               ? "has a dynamic traversal and requires PushPull"
               : "has a static traversal and requires Push or Pull";
}

const AppRegistry&
AppRegistry::instance()
{
    static const AppRegistry reg = [] {
        AppRegistry r;
        registerPrApp(r);
        registerSsspApp(r);
        registerMisApp(r);
        registerClrApp(r);
        registerBcApp(r);
        registerCcApp(r);
        return r;
    }();
    return reg;
}

void
AppRegistry::add(Entry entry)
{
    GGA_ASSERT(entry.run, "registry entry for ", entry.name,
               " has no runner");
    GGA_ASSERT(find(entry.id) == nullptr,
               "duplicate registration for ", entry.name);
    entries_.push_back(std::move(entry));
}

const AppRegistry::Entry*
AppRegistry::find(AppId app) const
{
    for (const Entry& e : entries_) {
        if (e.id == app)
            return &e;
    }
    return nullptr;
}

const AppRegistry::Entry&
AppRegistry::at(AppId app) const
{
    const Entry* e = find(app);
    if (!e)
        GGA_FATAL("application ", static_cast<int>(app),
                  " is not registered");
    return *e;
}

const AppRegistry::Entry*
AppRegistry::findByName(std::string_view name) const
{
    for (const Entry& e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

std::vector<SystemConfig>
AppRegistry::validConfigs(AppId app,
                          const std::vector<SystemConfig>& candidates) const
{
    const Entry& e = at(app);
    std::vector<SystemConfig> out;
    for (const SystemConfig& cfg : candidates) {
        if (e.validConfig(cfg))
            out.push_back(cfg);
    }
    return out;
}

} // namespace gga
