#include "libdcdb/csv.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/string_utils.hpp"

namespace dcdb::lib {

std::string samples_to_csv(const std::string& topic,
                           const std::vector<Sample>& samples) {
    std::ostringstream os;
    for (const auto& s : samples)
        os << topic << ',' << s.ts << ',' << strfmt("%.9g", s.value) << '\n';
    return os.str();
}

std::string readings_to_csv(const std::string& topic,
                            const std::vector<Reading>& readings) {
    std::ostringstream os;
    for (const auto& r : readings)
        os << topic << ',' << r.ts << ',' << r.value << '\n';
    return os.str();
}

std::vector<TopicReading> parse_csv(const std::string& text) {
    std::vector<TopicReading> out;
    int line_no = 0;
    for (const auto& line : split(text, '\n')) {
        ++line_no;
        const auto trimmed = trim(line);
        if (trimmed.empty() || trimmed[0] == '#') continue;
        const auto fields = split(trimmed, ',');
        if (fields.size() != 3)
            throw QueryError("csv line " + std::to_string(line_no) +
                             ": expected topic,timestamp,value");
        const auto ts = parse_u64(fields[1]);
        const auto value = parse_i64(fields[2]);
        if (!ts || !value)
            throw QueryError("csv line " + std::to_string(line_no) +
                             ": bad timestamp or value");
        out.push_back({fields[0], {*ts, *value}});
    }
    return out;
}

std::size_t import_csv(Connection& conn, const std::string& text,
                       std::uint32_t ttl_s) {
    const auto rows = parse_csv(text);
    conn.insert(rows, ttl_s);
    return rows.size();
}

}  // namespace dcdb::lib
