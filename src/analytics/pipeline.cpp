#include "analytics/pipeline.hpp"

#include "collectagent/collect_agent.hpp"
#include "common/logging.hpp"
#include "mqtt/topic.hpp"

namespace dcdb::analytics {

AnalyticsPipeline::AnalyticsPipeline(collectagent::CollectAgent& agent)
    : agent_(agent),
      processed_(agent.telemetry().counter("analytics.readings.processed")),
      derived_(agent.telemetry().counter("analytics.derived.written")),
      events_(agent.telemetry().counter("analytics.events.emitted")),
      errors_(agent.telemetry().counter("analytics.errors")) {
    agent_.set_live_listener(
        [this](const std::string& topic, const Reading& reading) {
            on_reading(topic, reading);
        });
}

AnalyticsPipeline::~AnalyticsPipeline() {
    agent_.set_live_listener(nullptr);
}

void AnalyticsPipeline::add_stage(const std::string& filter,
                                  std::shared_ptr<StreamOperator> op) {
    if (!filter_valid(filter))
        throw Error("invalid analytics stage filter: " + filter);
    stages_.push_back({filter, std::move(op)});
}

void AnalyticsPipeline::set_event_handler(EventHandler handler) {
    event_handler_ = std::move(handler);
}

void AnalyticsPipeline::on_reading(const std::string& topic,
                                   const Reading& reading) {
    processed_.add(1);
    for (const auto& stage : stages_) {
        if (!topic_matches(stage.filter, topic)) continue;
        std::optional<Derived> out;
        try {
            out = stage.op->process(topic, reading);
        } catch (const std::exception& e) {
            errors_.add(1);
            DCDB_WARN("analytics") << "operator " << stage.op->name()
                                   << " failed on " << topic << ": "
                                   << e.what();
            continue;
        }
        if (!out) continue;
        if (out->is_event) {
            events_.add(1);
            if (event_handler_)
                event_handler_({topic, out->reading, out->detail});
        } else {
            const std::string derived = topic + "/" + stage.op->name();
            try {
                agent_.ingest(derived, out->reading);
                derived_.add(1);
            } catch (const std::exception& e) {
                // The live reading is stored already: a refused
                // write-back must not refuse its publish.
                errors_.add(1);
                DCDB_WARN("analytics") << "write-back to " << derived
                                       << " failed: " << e.what();
            }
        }
    }
}

}  // namespace dcdb::analytics
