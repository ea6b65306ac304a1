#include "mqtt/topic.hpp"

#include "common/string_utils.hpp"

namespace dcdb {

bool topic_valid(std::string_view topic) {
    if (topic.empty() || topic.size() > 65535) return false;
    for (const char c : topic) {
        if (c == '+' || c == '#' || c == '\0') return false;
    }
    return true;
}

bool filter_valid(std::string_view filter) {
    if (filter.empty() || filter.size() > 65535) return false;
    const auto levels = topic_levels(filter);
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const auto& level = levels[i];
        if (level == "#") {
            if (i + 1 != levels.size()) return false;  // '#' only last
            continue;
        }
        if (level == "+") continue;
        for (const char c : level) {
            if (c == '+' || c == '#' || c == '\0') return false;
        }
    }
    return true;
}

bool topic_matches(std::string_view filter, std::string_view topic) {
    const auto f = topic_levels(filter);
    const auto t = topic_levels(topic);
    std::size_t i = 0;
    for (; i < f.size(); ++i) {
        if (f[i] == "#") return true;  // matches remainder incl. empty
        if (i >= t.size()) return false;
        if (f[i] == "+") continue;
        if (f[i] != t[i]) return false;
    }
    return i == t.size();
}

std::vector<std::string> topic_levels(std::string_view topic) {
    return split(topic, '/');
}

std::string normalize_sensor_topic(std::string_view topic) {
    std::string out;
    normalize_sensor_topic(topic, out);
    return out;
}

void normalize_sensor_topic(std::string_view topic, std::string& out) {
    out.clear();
    std::size_t start = 0;
    while (start < topic.size()) {
        std::size_t end = topic.find('/', start);
        if (end == std::string_view::npos) end = topic.size();
        if (end > start) {
            out.push_back('/');
            out.append(topic, start, end - start);
        }
        start = end + 1;
    }
    if (out.empty()) out.push_back('/');
}

std::size_t sensor_topic_levels(std::string_view topic,
                                std::span<std::string_view> out) {
    std::size_t count = 0;
    std::size_t start = 0;
    while (start < topic.size()) {
        std::size_t end = topic.find('/', start);
        if (end == std::string_view::npos) end = topic.size();
        if (end > start) {
            if (count < out.size())
                out[count] = topic.substr(start, end - start);
            ++count;
        }
        start = end + 1;
    }
    return count;
}

}  // namespace dcdb
