// Streaming analytics pipeline, attachable at the Collect Agent level.
//
// Stages pair an MQTT-style topic filter with an operator. Every live
// reading entering the Collect Agent is offered to each matching stage;
// derived readings are written back into the Storage Backend under
// "<input topic>/<operator name>" (so they are queryable like any other
// sensor, including by virtual sensors), and events are delivered to a
// registered event handler — the hook an "energy efficiency optimization
// or anomaly detection" application would use.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analytics/operators.hpp"
#include "telemetry/metrics.hpp"

namespace dcdb::collectagent {
class CollectAgent;
}

namespace dcdb::analytics {

struct Event {
    std::string topic;   // originating sensor
    Reading reading;
    std::string detail;  // operator diagnostic
};

class AnalyticsPipeline {
  public:
    using EventHandler = std::function<void(const Event&)>;

    /// Attach to an agent: the pipeline registers itself as the agent's
    /// live-reading listener and writes derived series through it.
    explicit AnalyticsPipeline(collectagent::CollectAgent& agent);
    ~AnalyticsPipeline();

    AnalyticsPipeline(const AnalyticsPipeline&) = delete;
    AnalyticsPipeline& operator=(const AnalyticsPipeline&) = delete;

    /// Add a stage: readings whose topic matches `filter` ('+'/'#'
    /// wildcards) are fed to `op`.
    void add_stage(const std::string& filter,
                   std::shared_ptr<StreamOperator> op);

    void set_event_handler(EventHandler handler);

    std::uint64_t readings_processed() const { return processed_.value(); }
    std::uint64_t derived_written() const { return derived_.value(); }
    std::uint64_t events_emitted() const { return events_.value(); }

  private:
    void on_reading(const std::string& topic, const Reading& reading);

    struct Stage {
        std::string filter;
        std::shared_ptr<StreamOperator> op;
    };

    collectagent::CollectAgent& agent_;
    std::vector<Stage> stages_;  // fixed after attach-time configuration
    EventHandler event_handler_;
    // Registered in the host agent's registry, so the analytics.* series
    // ride the agent's /metrics page and self-feed. errors_ counts an
    // operator that throws and a derived write-back the store refuses.
    telemetry::Counter& processed_;
    telemetry::Counter& derived_;
    telemetry::Counter& events_;
    telemetry::Counter& errors_;
};

}  // namespace dcdb::analytics
