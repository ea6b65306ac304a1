// MQTT topic names and filters.
//
// DCDB associates a unique MQTT topic to each sensor and uses the topic's
// path-like structure as the sensor hierarchy (paper, Section 3.1):
// "/room/system/rack/chassis/node/cpu/sensor". Topic filters with the
// standard '+' (one level) and '#' (multi level) wildcards are supported
// by the full broker; the Collect Agent's reduced broker never filters.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dcdb {

/// A topic name is valid if non-empty, contains no wildcards and no NUL.
bool topic_valid(std::string_view topic);

/// A filter additionally allows '+' as a full level and '#' as the final
/// level only.
bool filter_valid(std::string_view filter);

/// MQTT 3.1.1 matching rules (section 4.7 of the spec).
bool topic_matches(std::string_view filter, std::string_view topic);

/// Split on '/'; leading separator yields an empty first level, per spec.
std::vector<std::string> topic_levels(std::string_view topic);

/// Normalize a sensor topic: ensure single leading '/', collapse duplicate
/// separators, strip a trailing '/'. DCDB configs are tolerant about this.
std::string normalize_sensor_topic(std::string_view topic);

/// The same, written into `out` (allocation-free once `out` has grown to
/// the topic's length).
void normalize_sensor_topic(std::string_view topic, std::string& out);

/// The non-empty levels of a sensor topic as views into `topic` — the
/// levels of normalize_sensor_topic(topic), without allocating. Fills at
/// most `out.size()` entries and returns the total level count, so a
/// count above `out.size()` flags a topic too deep for the caller.
std::size_t sensor_topic_levels(std::string_view topic,
                                std::span<std::string_view> out);

}  // namespace dcdb
