// CSV conversion: the `query` tool emits CSV (paper, Section 5.2) and
// `csvimport` ingests it back into a Storage Backend.
//
// Format (one reading per line): sensor-topic,timestamp-ns,value
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "libdcdb/connection.hpp"

namespace dcdb::lib {

/// Serialize a physical-unit series for one sensor.
std::string samples_to_csv(const std::string& topic,
                           const std::vector<Sample>& samples);

/// Serialize raw readings for one sensor.
std::string readings_to_csv(const std::string& topic,
                            const std::vector<Reading>& readings);

/// Parse CSV rows; throws QueryError with the offending line number.
std::vector<TopicReading> parse_csv(const std::string& text);

/// Import rows into the store; returns the number of readings inserted.
std::size_t import_csv(Connection& conn, const std::string& text,
                       std::uint32_t ttl_s = 0);

}  // namespace dcdb::lib
