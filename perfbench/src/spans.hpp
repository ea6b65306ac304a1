// Spans recorded by the traced run around calls into each layer's public
// functions. They live in memory for the whole run and are written out
// when it ends; per-layer self times are derived from them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "mqtt/transport.hpp"

namespace perfbench {

/// One timed call, on the steady clock. `id` is unique within its lane
/// (ids start at 1, span i has id i + 1); `parent` names the enclosing
/// span, 0 for a root. (session, round, group) is the request id.
struct Span {
    const char* name{""};
    std::uint64_t start{0};
    std::uint64_t end{0};
    std::uint32_t id{0};
    std::uint32_t parent{0};
    std::uint32_t session{0};
    std::uint32_t round{0};
    std::uint32_t group{0};
    /// Items the call handled: readings, sections or payload bytes.
    std::uint64_t count{0};
    /// Memtable flushes seen across a store.insert call.
    std::uint64_t flushes{0};
};

/// The span log of one Pusher session. The generator thread, the MQTT
/// client's reader thread and the broker's session thread all record
/// here, so every call takes the lane mutex; it is uncontended because a
/// session has at most one QoS-1 publish in flight.
///
/// Span tree per round: pusher.sample; pusher.push > mqtt.publish (send
/// start to PUBACK arrival, one per group) > {mqtt.send, agent.sink >
/// {agent.decode, agent.resolve, store.insert, agent.bookkeep}}.
class Lane {
  public:
    explicit Lane(std::uint32_t session) : session_(session) {}

    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    /// Record a finished span; returns its id.
    std::uint32_t add(const char* name, std::uint32_t parent,
                      std::uint64_t start, std::uint64_t end,
                      std::uint64_t count = 0) DCDB_EXCLUDES(mutex_);
    /// Open a span whose end is not known yet; close() finishes it.
    std::uint32_t open(const char* name, std::uint32_t parent,
                       std::uint64_t start) DCDB_EXCLUDES(mutex_);
    void close(std::uint32_t id, std::uint64_t end, std::uint64_t count = 0,
               std::uint64_t flushes = 0) DCDB_EXCLUDES(mutex_);

    /// Generator side: a round's sampling and push_now().
    void begin_round(std::uint32_t round) DCDB_EXCLUDES(mutex_);
    void begin_push(std::uint64_t start) DCDB_EXCLUDES(mutex_);
    void end_push(std::uint64_t end) DCDB_EXCLUDES(mutex_);

    /// Transport side: a PUBLISH frame goes out, its PUBACK comes back.
    void publish_sending(std::uint64_t start) DCDB_EXCLUDES(mutex_);
    void publish_sent(std::uint64_t end) DCDB_EXCLUDES(mutex_);
    void puback(std::uint64_t at) DCDB_EXCLUDES(mutex_);

    /// The publish in flight: the parent of the agent's sink span.
    std::uint32_t open_publish() const DCDB_EXCLUDES(mutex_);

    /// All spans recorded so far (call after the session has stopped).
    std::vector<Span> spans() const DCDB_EXCLUDES(mutex_);
    /// Forget every span; call between rounds.
    void clear() DCDB_EXCLUDES(mutex_);

  private:
    std::uint32_t add_locked(const char* name, std::uint32_t parent,
                             std::uint64_t start) DCDB_REQUIRES(mutex_);

    const std::uint32_t session_;
    mutable dcdb::Mutex mutex_;
    std::vector<Span> spans_ DCDB_GUARDED_BY(mutex_);
    std::uint32_t round_ DCDB_GUARDED_BY(mutex_){0};
    std::uint32_t group_ DCDB_GUARDED_BY(mutex_){0};
    std::uint32_t push_ DCDB_GUARDED_BY(mutex_){0};
    std::uint32_t publish_ DCDB_GUARDED_BY(mutex_){0};
    std::uint32_t send_ DCDB_GUARDED_BY(mutex_){0};
};

/// Wraps a Pusher's TCP transport: times each PUBLISH frame's send and
/// the arrival of each PUBACK frame, reporting both to the lane.
class TimedTransport final : public dcdb::mqtt::Transport {
  public:
    TimedTransport(std::unique_ptr<dcdb::mqtt::Transport> inner, Lane* lane)
        : inner_(std::move(inner)), lane_(lane) {}

    void send(std::span<const std::uint8_t> data) override;
    std::size_t recv(std::span<std::uint8_t> buf) override;
    void close() override { inner_->close(); }

  private:
    std::unique_ptr<dcdb::mqtt::Transport> inner_;
    Lane* lane_;
    // Inbound frame scanner state (reader thread only).
    std::uint8_t frame_type_{0};
    std::uint32_t remaining_{0};
    std::uint32_t shift_{0};
    enum class Scan { kHeader, kLength, kBody } scan_{Scan::kHeader};
};

/// A span's duration minus the part of it its children cover.
/// `spans` is one lane's log; returns one value per span named `name`,
/// in nanoseconds.
std::vector<double> self_times_ns(const std::vector<Span>& spans,
                                  std::string_view name);

/// Write every lane's spans as tab-separated rows.
void write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& lanes);

}  // namespace perfbench
