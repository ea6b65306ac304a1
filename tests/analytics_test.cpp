// Tests for the streaming analytics layer (the paper's Section 9 future
// work): operators in isolation and the pipeline attached to a live
// Collect Agent.
#include <gtest/gtest.h>

#include <filesystem>

#include "analytics/operators.hpp"
#include "analytics/pipeline.hpp"
#include "collectagent/collect_agent.hpp"
#include <cmath>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/random.hpp"
#include "core/payload.hpp"
#include "mqtt/client.hpp"
#include "store/cluster.hpp"

namespace dcdb::analytics {
namespace {

// ------------------------------------------------------------- operators

TEST(Operators, SlidingAverageOverWindow) {
    SlidingAverage avg(3 * kNsPerSec);
    const std::string topic = "/t";
    EXPECT_EQ(avg.process(topic, {1 * kNsPerSec, 10})->reading.value, 10);
    EXPECT_EQ(avg.process(topic, {2 * kNsPerSec, 20})->reading.value, 15);
    EXPECT_EQ(avg.process(topic, {3 * kNsPerSec, 30})->reading.value, 20);
    // Window slides: the first reading (t=1s) falls out at t=4s.
    EXPECT_EQ(avg.process(topic, {4 * kNsPerSec, 40})->reading.value, 30);
}

TEST(Operators, SlidingAverageIsPerTopic) {
    SlidingAverage avg(10 * kNsPerSec);
    avg.process("/a", {kNsPerSec, 100});
    const auto b = avg.process("/b", {kNsPerSec, 0});
    EXPECT_EQ(b->reading.value, 0) << "topics must not share state";
}

TEST(Operators, RateOfChangeTurnsCountersIntoRates) {
    RateOfChange rate;
    EXPECT_FALSE(rate.process("/c", {1 * kNsPerSec, 1000}).has_value());
    const auto r = rate.process("/c", {3 * kNsPerSec, 3000});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->reading.value, 1000);  // 2000 over 2 seconds
}

TEST(Operators, RateIgnoresNonMonotonicTimestamps) {
    RateOfChange rate;
    rate.process("/c", {2 * kNsPerSec, 10});
    EXPECT_FALSE(rate.process("/c", {2 * kNsPerSec, 20}).has_value());
    EXPECT_FALSE(rate.process("/c", {1 * kNsPerSec, 5}).has_value());
}

TEST(Operators, SmootherConvergesToConstant) {
    Smoother ewma(0.5);
    Value last = 0;
    for (int i = 0; i < 20; ++i)
        last = ewma.process("/t", {static_cast<TimestampNs>(i + 1), 100})
                   ->reading.value;
    EXPECT_EQ(last, 100);
    EXPECT_THROW(Smoother bad(0.0), Error);
    EXPECT_THROW(Smoother bad2(1.5), Error);
}

TEST(Operators, ThresholdFiresOnlyOutsideBand) {
    ThresholdAlert alert(10, 20);
    EXPECT_FALSE(alert.process("/t", {1, 15}).has_value());
    EXPECT_FALSE(alert.process("/t", {2, 10}).has_value());
    const auto high = alert.process("/t", {3, 21});
    ASSERT_TRUE(high.has_value());
    EXPECT_TRUE(high->is_event);
    EXPECT_NE(high->detail.find("outside"), std::string::npos);
    EXPECT_TRUE(alert.process("/t", {4, 9})->is_event);
    EXPECT_THROW(ThresholdAlert bad(5, 1), Error);
}

TEST(Operators, ZScoreFlagsSpikeNotSteadyState) {
    ZScoreAnomaly detector(32, 4.0);
    Rng rng(1);
    // Steady noise around 1000: no anomalies after warm-up.
    int false_positives = 0;
    for (int i = 0; i < 200; ++i) {
        const Value v =
            1000 + static_cast<Value>(std::llround(rng.gaussian(0, 10)));
        if (detector.process("/p", {static_cast<TimestampNs>(i + 1), v}))
            ++false_positives;
    }
    EXPECT_LE(false_positives, 2);
    // A 50-sigma spike must fire.
    const auto spike = detector.process("/p", {1000, 2000});
    ASSERT_TRUE(spike.has_value());
    EXPECT_TRUE(spike->is_event);
}

// -------------------------------------------------------------- pipeline

class PipelineTest : public ::testing::Test {
  protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("dcdb_analytics_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        std::filesystem::create_directories(dir_);
        cluster_ = std::make_unique<store::StoreCluster>(store::ClusterConfig{
            dir_.string(), 1, 1, "hierarchy", 8u << 20, false});
        meta_ = std::make_unique<store::MetaStore>();
        agent_ = std::make_unique<collectagent::CollectAgent>(
            parse_config("global { listenTcp false }"), cluster_.get(),
            meta_.get());
    }
    void TearDown() override {
        agent_.reset();
        std::filesystem::remove_all(dir_);
    }

    void publish(const std::string& topic, std::vector<Reading> readings) {
        mqtt::MqttClient client(agent_->connect_inproc(), "t");
        client.connect();
        client.publish(topic,
                       encode_readings(std::span<const Reading>(readings)),
                       1);
        client.disconnect();
    }

    static std::atomic<int> counter_;
    std::filesystem::path dir_;
    std::unique_ptr<store::StoreCluster> cluster_;
    std::unique_ptr<store::MetaStore> meta_;
    std::unique_ptr<collectagent::CollectAgent> agent_;
};

std::atomic<int> PipelineTest::counter_{0};

TEST_F(PipelineTest, DerivedSeriesWrittenBackUnderOperatorSuffix) {
    AnalyticsPipeline pipeline(*agent_);
    pipeline.add_stage("/sys/+/power",
                       std::make_shared<SlidingAverage>(60 * kNsPerSec));

    publish("/sys/n0/power", {{1 * kNsPerSec, 100},
                              {2 * kNsPerSec, 200},
                              {3 * kNsPerSec, 300}});

    EXPECT_EQ(pipeline.readings_processed(), 3u);
    EXPECT_EQ(pipeline.derived_written(), 3u);
    const auto derived =
        agent_->query_stored("/sys/n0/power/avg", 0, kTimestampMax);
    ASSERT_EQ(derived.size(), 3u);
    EXPECT_EQ(derived[2].value, 200);  // mean of 100,200,300
    // Derived series appear in the hierarchy like any sensor.
    EXPECT_TRUE(agent_->hierarchy().is_sensor("/sys/n0/power/avg"));
}

TEST_F(PipelineTest, FilterSelectsSubtree) {
    AnalyticsPipeline pipeline(*agent_);
    pipeline.add_stage("/sys/#", std::make_shared<Smoother>(1.0));
    publish("/sys/n0/temp", {{kNsPerSec, 42}});
    publish("/fac/pdu/power", {{kNsPerSec, 9000}});
    EXPECT_EQ(pipeline.derived_written(), 1u);
    EXPECT_TRUE(
        agent_->query_stored("/fac/pdu/power/ewma", 0, kTimestampMax)
            .empty());
}

TEST_F(PipelineTest, EventsReachHandlerAndAreNotStored) {
    AnalyticsPipeline pipeline(*agent_);
    pipeline.add_stage("/sys/#",
                       std::make_shared<ThresholdAlert>(0, 500));
    std::vector<Event> events;
    pipeline.set_event_handler(
        [&events](const Event& e) { events.push_back(e); });

    publish("/sys/n0/power", {{1 * kNsPerSec, 400},
                              {2 * kNsPerSec, 900},
                              {3 * kNsPerSec, 450}});
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].topic, "/sys/n0/power");
    EXPECT_EQ(events[0].reading.value, 900);
    EXPECT_EQ(pipeline.events_emitted(), 1u);
    EXPECT_EQ(pipeline.derived_written(), 0u);
}

TEST_F(PipelineTest, MultipleStagesComposeOnOneStream) {
    AnalyticsPipeline pipeline(*agent_);
    pipeline.add_stage("/sys/#", std::make_shared<RateOfChange>());
    pipeline.add_stage("/sys/#",
                       std::make_shared<SlidingAverage>(60 * kNsPerSec));
    publish("/sys/n0/energy", {{1 * kNsPerSec, 0},
                               {2 * kNsPerSec, 250},
                               {3 * kNsPerSec, 500}});
    const auto rate =
        agent_->query_stored("/sys/n0/energy/rate", 0, kTimestampMax);
    ASSERT_EQ(rate.size(), 2u);  // first reading yields no rate
    EXPECT_EQ(rate[0].value, 250);
    EXPECT_EQ(
        agent_->query_stored("/sys/n0/energy/avg", 0, kTimestampMax).size(),
        3u);
}

TEST_F(PipelineTest, DerivedOutputDoesNotReenterPipeline) {
    AnalyticsPipeline pipeline(*agent_);
    // '#' matches everything, including the derived topics; without the
    // re-entry guard this would recurse forever.
    pipeline.add_stage("#", std::make_shared<Smoother>(1.0));
    publish("/sys/n0/power", {{kNsPerSec, 100}});
    EXPECT_EQ(pipeline.readings_processed(), 1u);
    EXPECT_EQ(pipeline.derived_written(), 1u);
    EXPECT_TRUE(
        agent_->query_stored("/sys/n0/power/ewma/ewma", 0, kTimestampMax)
            .empty());
}

/// Passes each reading through, first arming a one-shot store fault, so
/// the store refuses the derived write-back that follows.
class RefusedWriteBack final : public StreamOperator {
  public:
    std::string name() const override { return "refused"; }
    std::optional<Derived> process(const std::string&,
                                   const Reading& reading) override {
        FaultInjector::instance().arm(
            FaultPoint::kStoreInsert, {.error_prob = 1.0, .max_triggers = 1});
        return Derived{reading, false, ""};
    }
};

class ThrowingOperator final : public StreamOperator {
  public:
    std::string name() const override { return "throws"; }
    std::optional<Derived> process(const std::string&,
                                   const Reading&) override {
        throw Error("operator failed");
    }
};

// A refused write-back and an operator that throws each count one
// analytics.errors, and neither refuses the live publish.
TEST_F(PipelineTest, RefusedWriteBackLeavesTheLivePublishStored) {
    const std::shared_ptr<StreamOperator> failing[] = {
        std::make_shared<RefusedWriteBack>(),
        std::make_shared<ThrowingOperator>()};
    std::uint64_t n = 0;
    for (const auto& op : failing) {
        ++n;
        AnalyticsPipeline pipeline(*agent_);
        pipeline.add_stage("/sys/#", op);
        const std::string topic = "/sys/n" + std::to_string(n) + "/power";
        // publish() throws unless the live publish is acknowledged.
        publish(topic, {{kNsPerSec, 100}});
        FaultInjector::instance().disarm(FaultPoint::kStoreInsert);

        // The agent's analytics.* counters add up over both pipelines.
        EXPECT_EQ(pipeline.readings_processed(), n);
        EXPECT_EQ(pipeline.derived_written(), 0u);
        EXPECT_EQ(agent_->telemetry().counter("analytics.errors").value(), n)
            << op->name();
        EXPECT_EQ(agent_->stats().readings, n);
        EXPECT_EQ(agent_->stats().store_errors, 0u);
        EXPECT_EQ(agent_->query_stored(topic, 0, kTimestampMax).size(), 1u);
        EXPECT_TRUE(
            agent_->query_stored(topic + "/" + op->name(), 0, kTimestampMax)
                .empty());
    }
}

TEST_F(PipelineTest, InvalidFilterRejected) {
    AnalyticsPipeline pipeline(*agent_);
    EXPECT_THROW(
        pipeline.add_stage("/bad/#/filter", std::make_shared<RateOfChange>()),
        Error);
}

}  // namespace
}  // namespace dcdb::analytics
