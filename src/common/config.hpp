// Property-tree configuration format.
//
// DCDB configures Pushers, plugins and Collect Agents through "an intuitive
// property tree format" (paper, Section 4.1) — the Boost.PropertyTree INFO
// syntax. This is a from-scratch parser for that format:
//
//   global {
//       mqttBroker  127.0.0.1:1883
//       threads     2
//   }
//   group cpu {
//       interval    1000ms
//       sensor instructions {
//           type    perfevents
//       }
//   }
//
// Every node has a name, an optional scalar value, and ordered children.
// Values may be quoted ("a b c"), `;`/`#` start comments, and `include
// <file>` pulls in another file relative to the current one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace dcdb {

class ConfigNode {
  public:
    ConfigNode() = default;
    ConfigNode(std::string name, std::string value)
        : name_(std::move(name)), value_(std::move(value)) {}

    const std::string& name() const { return name_; }
    const std::string& value() const { return value_; }

    /// Ordered list of direct children.
    const std::vector<ConfigNode>& children() const { return children_; }
    std::vector<ConfigNode>& children() { return children_; }

    ConfigNode& add_child(std::string name, std::string value = "");

    /// All direct children with the given name.
    std::vector<const ConfigNode*> children_named(std::string_view name) const;

    /// First direct child with the given name, or nullptr.
    const ConfigNode* child(std::string_view name) const;

    /// Descend a dot-separated path ("global.mqttBroker"); nullptr if absent.
    const ConfigNode* find(std::string_view path) const;

    /// Scalar accessors over `find`. The *_or forms return the fallback when
    /// the path is missing; the required forms throw ConfigError.
    std::string get_string(std::string_view path) const;
    std::string get_string_or(std::string_view path,
                              std::string fallback) const;
    std::int64_t get_i64(std::string_view path) const;
    std::int64_t get_i64_or(std::string_view path, std::int64_t fallback) const;
    std::uint64_t get_u64_or(std::string_view path,
                             std::uint64_t fallback) const;
    bool get_bool_or(std::string_view path, bool fallback) const;
    /// Duration with unit suffix; bare numbers are milliseconds.
    std::uint64_t get_duration_ns_or(std::string_view path,
                                     std::uint64_t fallback_ns) const;

    /// Serialize back to INFO text (stable round-trip for tests/tools).
    std::string to_string(int indent = 0) const;

  private:
    std::string name_;
    std::string value_;
    std::vector<ConfigNode> children_;
};

/// Parse INFO-format text. The returned node is an unnamed root whose
/// children are the top-level entries. Throws ConfigError with a line
/// number on malformed input.
ConfigNode parse_config(std::string_view text);

/// Parse a configuration file from disk (resolving `include` directives
/// relative to the file's directory).
ConfigNode parse_config_file(const std::string& path);

}  // namespace dcdb
