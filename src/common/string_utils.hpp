// Small string helpers used by config parsing, topic handling and tools.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcdb {

/// Transparent string hash: paired with std::equal_to<>, it lets an
/// unordered container keyed by std::string be probed with a
/// std::string_view without materialising a key.
struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
    }
};

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split `s` on `sep`, dropping empty fields.
std::vector<std::string> split_nonempty(std::string_view s, char sep);

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

std::string to_lower(std::string_view s);

/// Parse a signed/unsigned integer or double; nullopt on any trailing junk.
std::optional<std::int64_t> parse_i64(std::string_view s);
std::optional<std::uint64_t> parse_u64(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// Parse a duration with unit suffix (ns, us, ms, s, m, h); bare numbers
/// are interpreted as milliseconds, matching DCDB's configuration files.
std::optional<std::uint64_t> parse_duration_ns(std::string_view s);

/// Parse a boolean ("true"/"false"/"on"/"off"/"1"/"0", case-insensitive).
std::optional<bool> parse_bool(std::string_view s);

/// Join elements with a separator.
std::string join(const std::vector<std::string>& parts, char sep);

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dcdb
