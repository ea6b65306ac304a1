// Plugin interface and registry.
//
// "The plugins for the actual data acquisition are implemented as dynamic
// libraries, which can be loaded at initialization time as well as at
// runtime" (paper, Section 3.1). This reproduction links plugins
// statically but keeps the same contract: a Configurator entry point that
// reads the plugin's configuration subtree and instantiates entities,
// groups and sensors; start/stop/reload at runtime via the REST API.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "pusher/sensor_group.hpp"

namespace dcdb::pusher {

/// Everything a plugin's configurator may need from its host Pusher.
struct PluginContext {
    /// Topic prefix identifying this node in the global hierarchy, e.g.
    /// "/lrz/coolmuc3/rack02/node17".
    std::string topic_prefix;
};

class Plugin {
  public:
    virtual ~Plugin() = default;

    virtual std::string name() const = 0;

    /// The Configurator role: build entities/groups/sensors from this
    /// plugin's config subtree. Called once at startup and again on
    /// REST-triggered reload (after clear()).
    virtual void configure(const ConfigNode& config,
                           const PluginContext& ctx) = 0;

    const std::vector<std::unique_ptr<SensorGroup>>& groups() const {
        return groups_;
    }

    /// Start/stop sampling of all groups (REST: PUT /plugins/<p>/...).
    void start();
    void stop();
    bool running() const;

    /// Drop all groups/entities (precedes a reconfigure).
    void clear();

    std::size_t sensor_count() const;

  protected:
    SensorGroup& add_group(std::unique_ptr<SensorGroup> group);
    Entity& add_entity(std::unique_ptr<Entity> entity);

    std::vector<std::unique_ptr<SensorGroup>> groups_;
    std::vector<std::unique_ptr<Entity>> entities_;
};

/// Static plugin factory registry (stands in for dlopen'd .so files).
class PluginRegistry {
  public:
    using Factory = std::function<std::unique_ptr<Plugin>()>;

    static PluginRegistry& instance();

    void register_plugin(const std::string& name, Factory factory);
    std::unique_ptr<Plugin> make(const std::string& name) const;
    std::vector<std::string> available() const;

  private:
    std::map<std::string, Factory> factories_;
};

}  // namespace dcdb::pusher

/// Implemented in the plugins module: registers every built-in plugin
/// with the registry. Idempotent.
namespace dcdb::plugins {
void register_builtin_plugins();
}
