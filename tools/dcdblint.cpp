// dcdblint — repo-invariant checker for the DCDB tree.
//
// A deliberately small, dependency-free static checker for the project
// rules that neither the compiler nor clang-tidy enforces:
//
//   naked-new          no naked new/delete in src/ — ownership lives in
//                      containers and smart pointers. A `new` wrapped
//                      directly in a smart-pointer constructor on the same
//                      line is allowed (the private-constructor factory
//                      idiom); anything else needs a
//                      `dcdblint: allow-new(<why>)` marker.
//   raw-sync           the concurrency-annotated layers (common, core,
//                      mqtt, pusher, collectagent, store) must use the
//                      annotated primitives from common/mutex.hpp, never
//                      std::mutex / std::scoped_lock & friends — raw
//                      primitives are invisible to -Wthread-safety.
//   unguarded-mutex    a file declaring a Mutex/SharedMutex member must
//                      also use DCDB_GUARDED_BY / DCDB_PT_GUARDED_BY /
//                      DCDB_REQUIRES somewhere, or mark the member with
//                      `dcdblint: no-guard(<what it serializes>)` — a
//                      mutex that guards nothing named is usually a lie.
//   banned-sleep       no std::this_thread::sleep_for/sleep_until in
//                      non-test source without an
//                      `dcdblint: allow-sleep(<why>)` marker: sleeps in
//                      product code are either a fault-injection delay, a
//                      clock primitive, or a bug.
//   cross-layer        #include "<layer>/..." must follow the layering
//                      matrix below (e.g. sim must never include store —
//                      simulated hardware cannot reach into the storage
//                      engine).
//   topic-literal      string literals that look like MQTT topics must
//                      satisfy the SID grammar's structural limits: at
//                      most 8 levels, no empty mid level ("//"), no
//                      trailing '/', wildcards only as whole levels and
//                      '#' only last (see core/sensor_id.hpp and
//                      mqtt/topic.hpp).
//   per-reading-insert the collect-agent layer must feed the store
//                      through the batched path (insert_batch): a
//                      per-reading `insert(...)` call re-opens the
//                      one-lock-acquisition-per-reading hot path the
//                      batch pipeline exists to close. Off-hot-path
//                      exceptions carry a
//                      `dcdblint: allow-single-insert(<why>)` marker.
//   naked-atomic       no ad-hoc `std::atomic<integer>` stat counters
//                      outside src/telemetry/ — statistics belong in the
//                      metric registry (telemetry::Counter/Gauge), where
//                      they are sharded, exported and self-fed.
//                      std::atomic<bool> flags are fine; anything else
//                      needs a `dcdblint: allow-atomic(<why>)` marker.
//   pusher-v0-encode   the pusher layer emits only v1 batch payloads
//                      (encode_batch): an `encode_readings(` call there
//                      would bring back the v0 single-sensor format on
//                      the Pusher -> Collect Agent hop. The v0 encoder
//                      stays in core for the peers that publish v0.
//   trace-stage        a Tracer::record_span call site must name its
//                      stage from the canonical Stage enum (Stage::k...)
//                      at the call (within two lines, for wrapped
//                      argument lists) — a stage passed through a
//                      variable defeats the greppable sample→sync
//                      pipeline inventory. Indirection that is genuinely
//                      needed carries a
//                      `dcdblint: allow-trace-stage(<why>)` marker.
//   durable-io         fsync, fdatasync, ftruncate, resize_file and
//                      rename are called only from src/store/file.cpp,
//                      the one place that orders syncs and publishes
//                      files. Anything else needs a
//                      `dcdblint: allow-durable-io(<why>)` marker.
//
// Markers are written in comments on the offending line or the line
// directly above, so every suppression carries its justification in situ.
//
// Usage:
//   dcdblint <repo-root>   lint src/ under the given root
//   dcdblint --self-test   prove every rule fires on a bad snippet and
//                          stays silent on a good one
//
// Exit code 0 = clean, 1 = violations (or a failed self-test).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
    std::string path;
    std::size_t line{0};
    std::string rule;
    std::string message;
};

// ------------------------------------------------------------ layering

// Sanctioned include matrix: which layers each layer may include. This is
// the architecture, written down; dcdblint keeps it true.
const std::map<std::string, std::set<std::string>>& layer_deps() {
    // "telemetry" is the instrumentation substrate: anything above common
    // may depend on it, and it depends only on common — so a metric can
    // never pull a product layer into another product layer.
    static const std::map<std::string, std::set<std::string>> deps = {
        {"common", {"common"}},
        {"telemetry", {"telemetry", "common"}},
        {"net", {"net", "telemetry", "common"}},
        {"mqtt", {"mqtt", "net", "telemetry", "common"}},
        // "store" includes the compaction engine (store/compaction.*):
        // maintenance must stay a pure storage concern — it may see
        // tables and metrics, never the broker or agent above it.
        {"store", {"store", "telemetry", "common"}},
        // "core" serves the REST routes both daemons share
        // (core/daemon_api.*), so it reaches net directly.
        {"core", {"core", "common", "mqtt", "net", "store", "telemetry"}},
        {"sim", {"sim", "net", "telemetry", "common"}},
        {"analysis", {"analysis", "telemetry", "common"}},
        {"pusher",
         {"pusher", "core", "mqtt", "net", "telemetry", "common"}},
        {"plugins",
         {"plugins", "pusher", "sim", "net", "telemetry", "common"}},
        {"collectagent",
         {"collectagent", "core", "mqtt", "net", "store", "telemetry",
          "common"}},
        {"analytics",
         {"analytics", "collectagent", "mqtt", "telemetry", "common"}},
        {"libdcdb",
         {"libdcdb", "core", "mqtt", "store", "telemetry", "common"}},
        {"tools",
         {"tools", "collectagent", "pusher", "libdcdb", "core", "store",
          "net", "telemetry", "common"}},
    };
    return deps;
}

// Layers whose locking is covered by the thread-safety annotations.
bool annotated_layer(const std::string& layer) {
    static const std::set<std::string> layers = {
        "common", "core",         "mqtt",  "pusher",
        "collectagent", "store", "telemetry"};
    return layers.count(layer) > 0;
}

// Files allowed to name the raw std primitives: the wrappers themselves.
bool sync_wrapper_file(const std::string& rel) {
    return rel == "src/common/mutex.hpp" ||
           rel == "src/common/thread_annotations.hpp";
}

std::string layer_of(const std::string& rel) {
    // rel is like "src/<layer>/...".
    if (rel.rfind("src/", 0) != 0) return "";
    const auto rest = rel.substr(4);
    const auto slash = rest.find('/');
    if (slash == std::string::npos) return "";
    return rest.substr(0, slash);
}

// ------------------------------------------------- source preprocessing

struct Line {
    std::string raw;      // original text (markers are searched here)
    std::string code;     // comments and literal *contents* blanked out
    std::vector<std::string> strings;  // extracted string literals
};

// Strip comments and string/char literals, keeping the file's line
// structure. Literal contents are replaced with spaces (quotes kept) so
// column positions stay roughly stable; extracted strings are retained
// per line for the topic-literal rule. Raw strings R"(...)" are treated
// like plain strings up to the closing )" — good enough for this tree.
std::vector<Line> preprocess(const std::string& content) {
    std::vector<Line> lines;
    std::string raw, code, current_string;
    std::vector<std::string> strings;
    enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
    State state = State::kCode;

    auto flush_line = [&] {
        lines.push_back({raw, code, strings});
        raw.clear();
        code.clear();
        strings.clear();
    };

    for (std::size_t i = 0; i < content.size(); ++i) {
        const char c = content[i];
        const char next = i + 1 < content.size() ? content[i + 1] : '\0';
        if (c == '\n') {
            if (state == State::kLineComment) state = State::kCode;
            flush_line();
            continue;
        }
        raw.push_back(c);
        switch (state) {
            case State::kCode:
                if (c == '/' && next == '/') {
                    state = State::kLineComment;
                    code.push_back(' ');
                } else if (c == '/' && next == '*') {
                    state = State::kBlockComment;
                    code.push_back(' ');
                } else if (c == '"') {
                    state = State::kString;
                    current_string.clear();
                    code.push_back('"');
                } else if (c == '\'') {
                    state = State::kChar;
                    code.push_back('\'');
                } else {
                    code.push_back(c);
                }
                break;
            case State::kLineComment:
                code.push_back(' ');
                break;
            case State::kBlockComment:
                if (c == '*' && next == '/') {
                    state = State::kCode;
                    ++i;
                    raw.push_back('/');
                    code += "  ";
                } else {
                    code.push_back(' ');
                }
                break;
            case State::kString:
                if (c == '\\' && next != '\0') {
                    ++i;
                    raw.push_back(next);
                    // Keep the backslash: literals with escapes are not
                    // topic candidates.
                    current_string.push_back('\\');
                    current_string.push_back(next);
                    code += "  ";
                } else if (c == '"') {
                    state = State::kCode;
                    strings.push_back(current_string);
                    code.push_back('"');
                } else {
                    current_string.push_back(c);
                    code.push_back(' ');
                }
                break;
            case State::kChar:
                if (c == '\\' && next != '\0') {
                    ++i;
                    raw.push_back(next);
                    code += "  ";
                } else if (c == '\'') {
                    state = State::kCode;
                    code.push_back('\'');
                } else {
                    code.push_back(' ');
                }
                break;
        }
    }
    flush_line();
    return lines;
}

bool word_at(const std::string& s, std::size_t pos, std::string_view word) {
    if (s.compare(pos, word.size(), word) != 0) return false;
    auto is_ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    if (pos > 0 && is_ident(s[pos - 1])) return false;
    const std::size_t end = pos + word.size();
    if (end < s.size() && is_ident(s[end])) return false;
    return true;
}

std::optional<std::size_t> find_word(const std::string& s,
                                     std::string_view word) {
    for (std::size_t pos = s.find(word); pos != std::string::npos;
         pos = s.find(word, pos + 1)) {
        if (word_at(s, pos, word)) return pos;
    }
    return std::nullopt;
}

// True when `name` appears in `code` as a call: the word, then '('.
bool calls(const std::string& code, std::string_view name) {
    const auto pos = find_word(code, name);
    if (!pos) return false;
    std::size_t j = *pos + name.size();
    while (j < code.size() && code[j] == ' ') ++j;
    return j < code.size() && code[j] == '(';
}

// Marker on the offending line or the line directly above.
bool has_marker(const std::vector<Line>& lines, std::size_t idx,
                std::string_view marker) {
    if (lines[idx].raw.find(marker) != std::string::npos) return true;
    return idx > 0 && lines[idx - 1].raw.find(marker) != std::string::npos;
}

// ------------------------------------------------------------- rules

void check_new_delete(const std::string& rel, const std::vector<Line>& lines,
                      std::vector<Violation>& out) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        if (const auto pos = find_word(code, "new")) {
            // Placement of the `new` directly inside a smart-pointer
            // constructor is the sanctioned private-constructor idiom.
            const auto before = code.substr(0, *pos);
            const bool smart = before.find("_ptr<") != std::string::npos ||
                               before.find("_ptr(") != std::string::npos;
            if (!smart && !has_marker(lines, i, "dcdblint: allow-new")) {
                out.push_back({rel, i + 1, "naked-new",
                               "naked `new` — use containers or "
                               "std::make_unique/make_shared, or justify "
                               "with `dcdblint: allow-new(<why>)`"});
            }
        }
        if (const auto pos = find_word(code, "delete")) {
            // `= delete` (deleted functions) is not a deallocation.
            const auto before = code.substr(0, *pos);
            const auto eq = before.find_last_not_of(" \t");
            const bool deleted_fn =
                eq != std::string::npos && before[eq] == '=';
            if (!deleted_fn && !has_marker(lines, i, "dcdblint: allow-new")) {
                out.push_back({rel, i + 1, "naked-delete",
                               "naked `delete` — ownership belongs in "
                               "smart pointers"});
            }
        }
    }
}

void check_raw_sync(const std::string& rel, const std::vector<Line>& lines,
                    std::vector<Violation>& out) {
    if (!annotated_layer(layer_of(rel)) || sync_wrapper_file(rel)) return;
    static const std::vector<std::string> banned = {
        "std::mutex",       "std::shared_mutex", "std::recursive_mutex",
        "std::timed_mutex", "std::scoped_lock",  "std::lock_guard",
        "std::unique_lock", "std::shared_lock",  "std::condition_variable",
    };
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const auto& token : banned) {
            if (lines[i].code.find(token) != std::string::npos) {
                out.push_back(
                    {rel, i + 1, "raw-sync",
                     token + " is invisible to -Wthread-safety; use the "
                             "annotated primitives from common/mutex.hpp"});
            }
        }
    }
}

void check_unguarded_mutex(const std::string& rel,
                           const std::vector<Line>& lines,
                           std::vector<Violation>& out) {
    if (!annotated_layer(layer_of(rel)) || sync_wrapper_file(rel)) return;
    bool has_guard_user = false;
    for (const auto& line : lines) {
        if (line.code.find("DCDB_GUARDED_BY") != std::string::npos ||
            line.code.find("DCDB_PT_GUARDED_BY") != std::string::npos ||
            line.code.find("DCDB_REQUIRES") != std::string::npos) {
            has_guard_user = true;
            break;
        }
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        // A declaration like `Mutex foo_;` / `mutable SharedMutex m;`.
        for (const std::string type : {"Mutex", "SharedMutex"}) {
            const auto pos = find_word(code, type);
            if (!pos) continue;
            // Skip mentions in expressions/parameters: require the word
            // to be followed by an identifier and ; or { (a declaration).
            std::size_t j = *pos + type.size();
            while (j < code.size() && code[j] == ' ') ++j;
            std::size_t ident = 0;
            while (j + ident < code.size() &&
                   (std::isalnum(static_cast<unsigned char>(
                        code[j + ident])) ||
                    code[j + ident] == '_'))
                ++ident;
            if (ident == 0) continue;
            std::size_t k = j + ident;
            while (k < code.size() && code[k] == ' ') ++k;
            if (k >= code.size() || (code[k] != ';' && code[k] != '{'))
                continue;
            if (!has_guard_user &&
                !has_marker(lines, i, "dcdblint: no-guard")) {
                out.push_back(
                    {rel, i + 1, "unguarded-mutex",
                     type + " member but no DCDB_GUARDED_BY user in this "
                            "file — annotate what it guards or mark "
                            "`dcdblint: no-guard(<what it serializes>)`"});
            }
            break;  // one report per line is enough
        }
    }
}

void check_sleep(const std::string& rel, const std::vector<Line>& lines,
                 std::vector<Violation>& out) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        if (code.find("sleep_for") == std::string::npos &&
            code.find("sleep_until") == std::string::npos)
            continue;
        if (has_marker(lines, i, "dcdblint: allow-sleep")) continue;
        out.push_back({rel, i + 1, "banned-sleep",
                       "sleep in non-test source — either it is a clock "
                       "primitive / injected fault delay (justify with "
                       "`dcdblint: allow-sleep(<why>)`) or it is hiding a "
                       "missing condition wait"});
    }
}

// The collect agent is the ingest hot path: every reading it stores must
// go through StoreCluster::insert_batch / StorageNode::insert_batch so a
// payload costs one commit-log record and one writer-lock acquisition,
// not one per reading. `insert_batch` is a different identifier and does
// not trip the check.
void check_per_reading_insert(const std::string& rel,
                              const std::vector<Line>& lines,
                              std::vector<Violation>& out) {
    if (layer_of(rel) != "collectagent") return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!calls(lines[i].code, "insert")) continue;
        if (has_marker(lines, i, "dcdblint: allow-single-insert")) continue;
        out.push_back(
            {rel, i + 1, "per-reading-insert",
             "per-reading insert() in the collect-agent layer — batch "
             "readings and call insert_batch(), or justify with "
             "`dcdblint: allow-single-insert(<why>)`"});
    }
}

// One wire format per hop: the Pusher publishes v1 batches only.
void check_pusher_v0_encode(const std::string& rel,
                            const std::vector<Line>& lines,
                            std::vector<Violation>& out) {
    if (layer_of(rel) != "pusher") return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!calls(lines[i].code, "encode_readings")) continue;
        out.push_back({rel, i + 1, "pusher-v0-encode",
                       "v0 encode_readings() in the pusher layer — the "
                       "Pusher publishes v1 batch payloads only "
                       "(encode_batch)"});
    }
}

// Stat counters must live in the telemetry registry; a naked
// std::atomic<integer> member is an unexported, unsharded shadow stat.
// Flags (std::atomic<bool>) are control state, not statistics, and pass.
void check_naked_atomic(const std::string& rel,
                        const std::vector<Line>& lines,
                        std::vector<Violation>& out) {
    if (rel.rfind("src/telemetry/", 0) == 0) return;  // the substrate
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        const auto pos = code.find("std::atomic<");
        if (pos == std::string::npos) continue;
        const auto open = pos + std::string("std::atomic<").size();
        const auto close = code.find('>', open);
        if (close == std::string::npos) continue;
        const std::string arg = code.substr(open, close - open);
        if (arg.find("bool") != std::string::npos) continue;
        // Trait queries (std::atomic<T>::is_always_lock_free) are not
        // declarations.
        if (code.compare(close + 1, 2, "::") == 0) continue;
        if (has_marker(lines, i, "dcdblint: allow-atomic")) continue;
        out.push_back(
            {rel, i + 1, "naked-atomic",
             "std::atomic<" + arg + "> stat counter — use "
             "telemetry::Counter/Gauge from the metric registry, or "
             "justify with `dcdblint: allow-atomic(<why>)`"});
    }
}

// Every flight-recorder span must be attributable to a pipeline stage by
// grep: the Stage enumerator is the documentation of where in the
// sample→sync pipeline the span sits, so it must appear literally at the
// call site (same line or the two continuation lines of a wrapped call).
void check_trace_stage(const std::string& rel,
                       const std::vector<Line>& lines,
                       std::vector<Violation>& out) {
    if (rel.rfind("src/telemetry/", 0) == 0) return;  // the substrate
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& code = lines[i].code;
        const auto pos = find_word(code, "record_span");
        if (!pos) continue;
        // Only calls: `record_span` immediately followed by '('.
        std::size_t j = *pos + std::string("record_span").size();
        while (j < code.size() && code[j] == ' ') ++j;
        if (j >= code.size() || code[j] != '(') continue;
        bool named = false;
        for (std::size_t k = i; k < lines.size() && k <= i + 2; ++k) {
            if (lines[k].code.find("Stage::k") != std::string::npos) {
                named = true;
                break;
            }
        }
        if (named) continue;
        if (has_marker(lines, i, "dcdblint: allow-trace-stage")) continue;
        out.push_back(
            {rel, i + 1, "trace-stage",
             "record_span without a literal Stage::k... at the call site "
             "— name the pipeline stage, or justify with "
             "`dcdblint: allow-trace-stage(<why>)`"});
    }
}

// Durable I/O has one home: a sync, truncate or rename anywhere else is
// a second place that must get the durability order right.
void check_durable_io(const std::string& rel, const std::vector<Line>& lines,
                      std::vector<Violation>& out) {
    if (rel.rfind("src/", 0) != 0 || rel == "src/store/file.cpp") return;
    static const std::vector<std::string_view> calls_banned = {
        "fsync", "fdatasync", "ftruncate", "resize_file", "rename"};
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const auto name : calls_banned) {
            if (!calls(lines[i].code, name)) continue;
            if (has_marker(lines, i, "dcdblint: allow-durable-io")) break;
            out.push_back({rel, i + 1, "durable-io",
                           std::string(name) +
                               "() outside src/store/file.cpp — go through "
                               "store/file (RecordLog, sync_file, "
                               "publish_file), or justify with "
                               "`dcdblint: allow-durable-io(<why>)`"});
            break;  // one report per line is enough
        }
    }
}

void check_includes(const std::string& rel, const std::vector<Line>& lines,
                    std::vector<Violation>& out) {
    const std::string layer = layer_of(rel);
    const auto it = layer_deps().find(layer);
    if (it == layer_deps().end()) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string& raw = lines[i].raw;
        const auto inc = raw.find("#include \"");
        if (inc == std::string::npos) continue;
        const auto start = inc + 10;
        const auto slash = raw.find('/', start);
        const auto quote = raw.find('"', start);
        if (slash == std::string::npos || quote == std::string::npos ||
            slash > quote)
            continue;  // flat include ("gtest/..." handled by <>)
        const std::string target = raw.substr(start, slash - start);
        if (layer_deps().count(target) == 0) continue;  // not a layer
        if (it->second.count(target) == 0) {
            out.push_back({rel, i + 1, "cross-layer",
                           "layer '" + layer + "' must not include '" +
                               target + "/...' (see the layering matrix "
                               "in tools/dcdblint.cpp)"});
        }
    }
}

// Structural SID-grammar checks for topic-looking literals. Only literals
// that could plausibly be MQTT topics are inspected; anything with
// path/URL/printf chatter is skipped to keep the rule false-positive-free.
bool topic_candidate(const std::string& s) {
    if (s.size() < 2 || s[0] != '/') return false;
    for (const char c : s) {
        if (c == '.' || c == ' ' || c == '?' || c == '=' || c == '%' ||
            c == ':' || c == ',' || c == '(' || c == '*' || c == '\\')
            return false;
    }
    return true;
}

std::optional<std::string> topic_structural_error(const std::string& s) {
    std::vector<std::string> levels;
    std::string current;
    for (std::size_t i = 1; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == '/') {
            levels.push_back(current);
            current.clear();
        } else {
            current.push_back(s[i]);
        }
    }
    if (levels.size() > 8)
        return "more than 8 levels cannot map into a 128-bit SID";
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const auto& level = levels[i];
        if (level.empty())
            return i + 1 == levels.size() ? "trailing '/'"
                                          : "empty level ('//')";
        const bool last = i + 1 == levels.size();
        if (level.find('#') != std::string::npos &&
            (level != "#" || !last))
            return "'#' must be the entire final level";
        if (level.find('+') != std::string::npos && level != "+")
            return "'+' must be an entire level";
    }
    return std::nullopt;
}

void check_topic_literals(const std::string& rel,
                          const std::vector<Line>& lines,
                          std::vector<Violation>& out) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
        // A literal being string-concatenated ("/prefix/" + name) is a
        // topic *fragment*: its trailing '/' is the joint, not an error.
        const bool fragment =
            lines[i].code.find("\" +") != std::string::npos ||
            lines[i].code.find("+ \"") != std::string::npos;
        for (const auto& literal : lines[i].strings) {
            if (!topic_candidate(literal)) continue;
            if (has_marker(lines, i, "dcdblint: allow-topic")) continue;
            if (const auto err = topic_structural_error(literal)) {
                if (fragment && *err == "trailing '/'") continue;
                out.push_back({rel, i + 1, "topic-literal",
                               "\"" + literal + "\": " + *err});
            }
        }
    }
}

std::vector<Violation> lint_file(const std::string& rel,
                                 const std::string& content) {
    const auto lines = preprocess(content);
    std::vector<Violation> out;
    check_new_delete(rel, lines, out);
    check_raw_sync(rel, lines, out);
    check_unguarded_mutex(rel, lines, out);
    check_sleep(rel, lines, out);
    check_per_reading_insert(rel, lines, out);
    check_pusher_v0_encode(rel, lines, out);
    check_naked_atomic(rel, lines, out);
    check_trace_stage(rel, lines, out);
    check_durable_io(rel, lines, out);
    check_includes(rel, lines, out);
    check_topic_literals(rel, lines, out);
    return out;
}

// ------------------------------------------------------------ self-test

struct Case {
    const char* name;
    const char* path;  // decides which layer rules apply
    const char* code;
    const char* expect_rule;  // nullptr = must be clean
};

const Case kCases[] = {
    {"naked new fires", "src/store/bad.cpp", "int* p = new int(3);\n",
     "naked-new"},
    {"naked delete fires", "src/store/bad.cpp", "delete p;\n",
     "naked-delete"},
    {"smart-pointer new allowed", "src/store/good.cpp",
     "auto t = std::unique_ptr<T>(new T());\n", nullptr},
    {"deleted function allowed", "src/store/good.cpp",
     "T(const T&) = delete;\n", nullptr},
    {"marker silences new", "src/store/good.cpp",
     "// dcdblint: allow-new(arena block)\nchar* b = new char[4096];\n",
     nullptr},
    {"std::mutex fires in annotated layer", "src/mqtt/bad.hpp",
     "std::mutex m_;\n", "raw-sync"},
    {"std::mutex ok outside annotated layers", "src/sim/good.hpp",
     "std::mutex m_;\n", nullptr},
    {"scoped_lock fires in annotated layer", "src/core/bad.cpp",
     "std::scoped_lock lock(mutex_);\n", "raw-sync"},
    {"mutex without guard user fires", "src/pusher/bad.hpp",
     "class X {\n  Mutex mutex_;\n  int data_;\n};\n", "unguarded-mutex"},
    {"mutex with guard user clean", "src/pusher/good.hpp",
     "class X {\n  Mutex mutex_;\n  int data_ DCDB_GUARDED_BY(mutex_);\n"
     "};\n",
     nullptr},
    {"no-guard marker accepted", "src/pusher/good2.hpp",
     "  // dcdblint: no-guard(serializes an action, not state)\n"
     "  Mutex io_mutex_;\n",
     nullptr},
    {"sleep fires", "src/pusher/bad2.cpp",
     "std::this_thread::sleep_for(std::chrono::seconds(1));\n",
     "banned-sleep"},
    {"sleep with marker clean", "src/pusher/good3.cpp",
     "// dcdblint: allow-sleep(injected fault delay)\n"
     "std::this_thread::sleep_for(delay);\n",
     nullptr},
    {"per-reading insert fires in collect agent", "src/collectagent/bad.cpp",
     "cluster_->insert(key, ts, value, ttl);\n", "per-reading-insert"},
    {"insert_batch clean in collect agent", "src/collectagent/good.cpp",
     "cluster_->insert_batch(batch, store_node_hint_);\n", nullptr},
    {"allow-single-insert marker accepted", "src/collectagent/good2.cpp",
     "// dcdblint: allow-single-insert(admin backfill, not the hot path)\n"
     "cluster_->insert(key, ts, value);\n",
     nullptr},
    {"per-reading insert ok outside collect agent", "src/store/good9.cpp",
     "memtable_.insert(key, row);\n", nullptr},
    {"v0 encode fires in pusher", "src/pusher/bad4.cpp",
     "client->publish(topic, encode_readings(readings), qos);\n",
     "pusher-v0-encode"},
    {"v1 encode clean in pusher", "src/pusher/good7.cpp",
     "client->publish(topic, encode_batch(sections_, trace), qos);\n",
     nullptr},
    {"v0 encode ok outside pusher", "src/core/good3.cpp",
     "return encode_readings(std::span<const Reading>(readings));\n",
     nullptr},
    {"naked atomic counter fires", "src/store/bad3.hpp",
     "std::atomic<std::uint64_t> writes_{0};\n", "naked-atomic"},
    {"atomic bool flag clean", "src/store/good6.hpp",
     "std::atomic<bool> stopping_{false};\n", nullptr},
    {"allow-atomic marker accepted", "src/common/good.hpp",
     "// dcdblint: allow-atomic(log level switch, not a stat)\n"
     "std::atomic<int> level_{0};\n",
     nullptr},
    {"telemetry layer may use raw atomics", "src/telemetry/good.hpp",
     "std::atomic<std::uint64_t> v{0};\n", nullptr},
    {"record_span without stage fires", "src/pusher/bad3.cpp",
     "tracer_->record_span(ctx, stage, start, dur, n);\n", "trace-stage"},
    {"record_span with stage clean", "src/pusher/good6.cpp",
     "tracer_->record_span(ctx, telemetry::trace::Stage::kSample,\n"
     "                     start, dur, n);\n",
     nullptr},
    {"allow-trace-stage marker accepted", "src/mqtt/good.cpp",
     "// dcdblint: allow-trace-stage(stage forwarded by test harness)\n"
     "tracer_->record_span(ctx, stage, start, dur, n);\n",
     nullptr},
    {"record_span declaration in telemetry clean", "src/telemetry/good3.hpp",
     "void record_span(const TraceContext& ctx, Stage stage,\n"
     "                 TimestampNs start, std::uint64_t dur) noexcept;\n",
     nullptr},
    {"fdatasync fires outside store/file", "src/store/bad4.cpp",
     "if (::fdatasync(::fileno(file_)) != 0) fail();\n", "durable-io"},
    {"rename fires outside store/file", "src/tools/bad2.cpp",
     "fs::rename(from, to, ec);\n", "durable-io"},
    {"store/file may sync, truncate and rename", "src/store/file.cpp",
     "rc = ::fsync(fd);\n::ftruncate(fd, len);\n"
     "std::rename(tmp.c_str(), path.c_str());\n",
     nullptr},
    {"allow-durable-io marker accepted", "src/store/good8.cpp",
     "// dcdblint: allow-durable-io(a quarantine, not a publish)\n"
     "fs::rename(path, quarantined, ec);\n",
     nullptr},
    {"durable-io ignores comments and other names", "src/store/good10.cpp",
     "// fsync -> rename -> dir fsync\nvoid sync_file(FILE* f);\n"
     "log_.sync();\n",
     nullptr},
    {"atomic trait query clean", "src/net/good.hpp",
     "static_assert(std::atomic<std::uint64_t>::is_always_lock_free);\n",
     nullptr},
    {"telemetry including common clean", "src/telemetry/good2.hpp",
     "#include \"common/mutex.hpp\"\n", nullptr},
    {"telemetry including store fires", "src/telemetry/bad.hpp",
     "#include \"store/node.hpp\"\n", "cross-layer"},
    {"store including telemetry clean", "src/store/good7.hpp",
     "#include \"telemetry/metrics.hpp\"\n", nullptr},
    {"sim including store fires", "src/sim/bad.hpp",
     "#include \"store/node.hpp\"\n", "cross-layer"},
    {"store including mqtt fires", "src/store/bad2.hpp",
     "#include \"mqtt/client.hpp\"\n", "cross-layer"},
    {"compaction engine stays inside store", "src/store/compaction.cpp",
     "#include \"store/sstable.hpp\"\n"
     "#include \"telemetry/metrics.hpp\"\n",
     nullptr},
    {"compaction engine must not reach the agent", "src/store/compaction.cpp",
     "#include \"collectagent/collect_agent.hpp\"\n", "cross-layer"},
    {"pusher including core clean", "src/pusher/good4.hpp",
     "#include \"core/sensor_cache.hpp\"\n", nullptr},
    {"core including net clean", "src/core/good3.hpp",
     "#include \"net/http.hpp\"\n", nullptr},
    {"net including core fires", "src/net/bad.hpp",
     "#include \"core/daemon_api.hpp\"\n", "cross-layer"},
    {"nine-level topic fires", "src/core/bad2.cpp",
     "const char* t = \"/a/b/c/d/e/f/g/h/i\";\n", "topic-literal"},
    {"empty level fires", "src/core/bad3.cpp",
     "publish(\"/rack//power\", v);\n", "topic-literal"},
    {"trailing slash fires", "src/core/bad4.cpp",
     "publish(\"/rack/node0/\", v);\n", "topic-literal"},
    {"mid-level wildcard fires", "src/core/bad5.cpp",
     "subscribe(\"/rack/#/power\");\n", "topic-literal"},
    {"embedded wildcard fires", "src/core/bad6.cpp",
     "subscribe(\"/rack/no+de/power\");\n", "topic-literal"},
    {"valid topic clean", "src/core/good.cpp",
     "publish(\"/room/system/rack/chassis/node/cpu/sensor\", v);\n",
     nullptr},
    {"valid filter clean", "src/core/good2.cpp",
     "subscribe(\"/rack/+/power\");\nsubscribe(\"/churn/#\");\n", nullptr},
    {"file path ignored", "src/store/good3.cpp",
     "open(dir + \"/commit.log\");\n", nullptr},
    {"concatenated prefix fragment clean", "src/pusher/good5.cpp",
     "add(prefix + \"/tester/\" + group + \"/\" + name);\n", nullptr},
    {"escaped literal not a topic", "src/tools/good.cpp",
     "out += \"//\\n\";\n", nullptr},
    {"comments and strings ignored", "src/store/good4.cpp",
     "// new delete std::mutex sleep_for\n"
     "log(\"do not delete this new file\");\n",
     nullptr},
};

int self_test() {
    int failures = 0;
    for (const auto& c : kCases) {
        const auto violations = lint_file(c.path, c.code);
        const bool fired =
            std::any_of(violations.begin(), violations.end(),
                        [&](const Violation& v) {
                            return c.expect_rule && v.rule == c.expect_rule;
                        });
        bool ok;
        if (c.expect_rule) {
            ok = fired && violations.size() == 1;
        } else {
            ok = violations.empty();
        }
        if (!ok) {
            ++failures;
            std::cerr << "SELF-TEST FAIL: " << c.name << "\n";
            for (const auto& v : violations)
                std::cerr << "  got " << v.rule << ": " << v.message << "\n";
            if (c.expect_rule && violations.empty())
                std::cerr << "  expected " << c.expect_rule
                          << " to fire, got nothing\n";
        }
    }
    if (failures == 0) {
        std::cout << "dcdblint self-test: "
                  << sizeof(kCases) / sizeof(kCases[0]) << " cases ok\n";
        return 0;
    }
    std::cerr << "dcdblint self-test: " << failures << " case(s) failed\n";
    return 1;
}

// ------------------------------------------------------------- driver

int lint_tree(const fs::path& root) {
    const fs::path src = root / "src";
    if (!fs::is_directory(src)) {
        std::cerr << "dcdblint: no src/ under " << root << "\n";
        return 2;
    }
    std::vector<Violation> all;
    std::size_t files = 0;
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file()) continue;
        const auto ext = entry.path().extension().string();
        if (ext != ".cpp" && ext != ".hpp") continue;
        ++files;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string rel =
            fs::relative(entry.path(), root).generic_string();
        const auto violations = lint_file(rel, buf.str());
        all.insert(all.end(), violations.begin(), violations.end());
    }
    std::sort(all.begin(), all.end(),
              [](const Violation& a, const Violation& b) {
                  return std::tie(a.path, a.line) < std::tie(b.path, b.line);
              });
    for (const auto& v : all) {
        std::cerr << v.path << ":" << v.line << ": [" << v.rule << "] "
                  << v.message << "\n";
    }
    if (all.empty()) {
        std::cout << "dcdblint: " << files << " files clean\n";
        return 0;
    }
    std::cerr << "dcdblint: " << all.size() << " violation(s) in " << files
              << " files\n";
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::string_view(argv[1]) == "--self-test")
        return self_test();
    if (argc == 2) return lint_tree(argv[1]);
    std::cerr << "usage: dcdblint <repo-root> | dcdblint --self-test\n";
    return 2;
}
