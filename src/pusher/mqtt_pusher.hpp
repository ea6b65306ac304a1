// MQTT push thread: periodically drains every sensor's pending readings
// and publishes them to the Collect Agent, each sensor group as v1 batch
// payloads (core/payload.hpp): one per group, split only where a payload
// would exceed the wire limits.
//
// Supports the two send disciplines studied in the paper (Section 6.2.1):
// continuous (drain every push interval, default 1s, with a per-Pusher
// random stagger so thousands of Pushers do not synchronize their sends)
// and burst mode ("regular bursts twice per minute", which reduced
// network interference for AMG).
//
// Delivery reliability: a payload whose publish fails is never discarded
// — it moves, as encoded, to a retry queue bounded in readings and is
// republished byte for byte with exponential backoff plus jitter ahead
// of fresh data (preserving per-sensor ordering at the Collect Agent for
// the common case). Only when the queue bound is hit are the oldest
// payloads dropped, and that loss is counted (readings_dropped). The
// storage layer keys rows by timestamp, so at-least-once redelivery
// after an unacknowledged QoS-1 publish deduplicates server-side.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/random.hpp"
#include "core/payload.hpp"
#include "mqtt/client.hpp"
#include "pusher/plugin.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace dcdb::pusher {

struct MqttPusherConfig {
    TimestampNs push_interval_ns{kNsPerSec};
    bool burst_mode{false};
    TimestampNs burst_interval_ns{30 * kNsPerSec};
    std::uint8_t qos{0};
    std::uint64_t stagger_seed{0};  // derives the random send stagger
    /// Retry queue bound, in readings. Beyond it the oldest failed
    /// payloads are dropped whole — DCDB favours fresh data.
    std::size_t retry_max_readings{1u << 20};
    /// Exponential backoff window for retrying failed publishes.
    TimestampNs retry_backoff_min_ns{100 * kNsPerMs};
    TimestampNs retry_backoff_max_ns{10 * kNsPerSec};
    /// Registry for the pusher.push.* counters and retry-queue gauges;
    /// nullptr keeps a private registry.
    telemetry::MetricRegistry* registry{nullptr};
    /// When set, the push thread picks up traces the sampler parked on
    /// each group, records coalesce/publish spans, and ships the context
    /// in the trailer of the group's first payload. A retry republishes
    /// the payload as it was, trailer included.
    telemetry::trace::Tracer* tracer{nullptr};
};

struct MqttPusherStats {
    std::uint64_t readings_pushed{0};   // successfully published only
    std::uint64_t messages_sent{0};     // successfully published only
    std::uint64_t publish_failures{0};  // failed publish attempts
    /// Publish attempts from the retry queue and how many of them
    /// succeeded — distinct counters: a batch that fails N times must
    /// not be indistinguishable from N successful retries.
    std::uint64_t retry_attempts{0};
    std::uint64_t retry_successes{0};
    std::uint64_t readings_requeued{0};
    std::uint64_t readings_dropped{0};  // lost to the queue bound
    std::size_t retry_queue_batches{0};  // failed payloads queued
    std::size_t retry_queue_readings{0};
};

/// Supplies the (re)connected MQTT client for each push round. Returns
/// nullptr while the Collect Agent is unreachable; readings then stay in
/// the sensors' (bounded) pending buffers and drain on reconnection.
using ClientProvider = std::function<mqtt::MqttClient*()>;

class MqttPusher {
  public:
    /// `plugins` must outlive the pusher.
    MqttPusher(ClientProvider client_provider,
               const std::vector<std::unique_ptr<Plugin>>* plugins,
               MqttPusherConfig config);
    ~MqttPusher();

    void start();
    void stop();

    /// Drain and publish once, synchronously (also used by tests).
    /// Retry-queue payloads go first.
    std::size_t push_once();

    std::uint64_t readings_pushed() const { return readings_.value(); }
    std::uint64_t messages_sent() const { return messages_.value(); }

    MqttPusherStats stats() const;

  private:
    /// One failed publish, kept as encoded for its retry.
    struct FailedPublish {
        std::string topic;
        std::vector<std::uint8_t> payload;
        std::size_t readings{0};
    };
    /// One sensor drained this round: its readings are
    /// drain_[begin, begin + count).
    struct Drained {
        const SensorBase* sensor{nullptr};
        std::size_t begin{0};
        std::size_t count{0};
    };

    void loop();
    /// One push round: the retry queue first (skipping its backoff on
    /// the final flush), then every group's drain.
    std::size_t push_round(bool final_flush) DCDB_EXCLUDES(push_mutex_);
    /// Publish one payload; returns false (after counting the failure)
    /// instead of throwing so callers can re-queue.
    bool publish(mqtt::MqttClient* client, const std::string& topic,
                 std::span<const std::uint8_t> payload,
                 std::size_t readings);
    std::span<const Reading> readings_of(const Drained& d) const
        DCDB_REQUIRES(push_mutex_);
    /// Publish the group drained into drain_/drained_ as the fewest v1
    /// payloads within the wire limits; `trace` rides the first one.
    void publish_group(mqtt::MqttClient* client, std::size_t& sent,
                       const telemetry::trace::TraceContext& trace)
        DCDB_REQUIRES(push_mutex_);
    /// Encode drained_[first, last) as one payload and publish it; a
    /// failed payload enters the retry queue as encoded.
    void publish_sections(mqtt::MqttClient* client, std::size_t first,
                          std::size_t last, std::size_t& sent,
                          const telemetry::trace::TraceContext& trace)
        DCDB_REQUIRES(push_mutex_);
    void requeue(FailedPublish failed) DCDB_REQUIRES(push_mutex_);
    std::size_t flush_retries(mqtt::MqttClient* client, bool ignore_backoff)
        DCDB_REQUIRES(push_mutex_);
    void bump_backoff() DCDB_REQUIRES(push_mutex_);

    ClientProvider client_provider_;
    const std::vector<std::unique_ptr<Plugin>>* plugins_;
    MqttPusherConfig config_;
    std::unique_ptr<telemetry::MetricRegistry> owned_registry_;
    telemetry::Counter& readings_;
    telemetry::Counter& messages_;
    telemetry::Counter& publish_failures_;
    telemetry::Counter& retry_attempts_;
    telemetry::Counter& retry_successes_;
    telemetry::Counter& readings_requeued_;
    telemetry::Counter& readings_dropped_;
    // Queue-depth gauges: updated under push_mutex_ but readable by
    // stats() without blocking on a publish in flight.
    telemetry::Gauge& retry_batches_;
    telemetry::Gauge& retry_readings_;
    std::thread thread_;
    std::atomic<bool> stopping_{false};

    // Serializes push rounds (the push thread, push_now, the final
    // flush) and guards the retry queue and backoff state they share.
    // Lock order: push_mutex_ -> SensorBase::mutex_ and push_mutex_ ->
    // the client provider's lock; it stays held across a publish. The
    // scratch below is reused every round: drain_ holds one group's
    // drain at a time and payload_ one encoded payload. A buffer grown
    // by a backlog is freed once rounds are small again.
    Mutex push_mutex_;
    std::vector<Reading> drain_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<Drained> drained_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<SensorBatch> sections_ DCDB_GUARDED_BY(push_mutex_);
    std::vector<std::uint8_t> payload_ DCDB_GUARDED_BY(push_mutex_);

    std::deque<FailedPublish> retry_queue_ DCDB_GUARDED_BY(push_mutex_);
    std::size_t retry_queue_readings_ DCDB_GUARDED_BY(push_mutex_){0};
    // 0 = not backing off
    TimestampNs retry_backoff_ns_ DCDB_GUARDED_BY(push_mutex_){0};
    // steady-clock gate
    TimestampNs retry_next_attempt_ns_ DCDB_GUARDED_BY(push_mutex_){0};
    Rng jitter_rng_ DCDB_GUARDED_BY(push_mutex_){0xD1CEu};
};

}  // namespace dcdb::pusher
