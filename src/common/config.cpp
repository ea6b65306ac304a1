#include "common/config.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/string_utils.hpp"

namespace dcdb {

ConfigNode& ConfigNode::add_child(std::string name, std::string value) {
    children_.emplace_back(std::move(name), std::move(value));
    return children_.back();
}

std::vector<const ConfigNode*> ConfigNode::children_named(
    std::string_view name) const {
    std::vector<const ConfigNode*> out;
    for (const auto& c : children_) {
        if (c.name() == name) out.push_back(&c);
    }
    return out;
}

const ConfigNode* ConfigNode::child(std::string_view name) const {
    for (const auto& c : children_) {
        if (c.name() == name) return &c;
    }
    return nullptr;
}

const ConfigNode* ConfigNode::find(std::string_view path) const {
    const ConfigNode* node = this;
    for (const auto& part : split(path, '.')) {
        node = node->child(part);
        if (!node) return nullptr;
    }
    return node;
}

std::string ConfigNode::get_string(std::string_view path) const {
    const ConfigNode* n = find(path);
    if (!n) throw ConfigError("missing key: " + std::string(path));
    return n->value();
}

std::string ConfigNode::get_string_or(std::string_view path,
                                      std::string fallback) const {
    const ConfigNode* n = find(path);
    return n ? n->value() : std::move(fallback);
}

std::int64_t ConfigNode::get_i64(std::string_view path) const {
    const auto v = parse_i64(get_string(path));
    if (!v)
        throw ConfigError("not an integer: " + std::string(path));
    return *v;
}

std::int64_t ConfigNode::get_i64_or(std::string_view path,
                                    std::int64_t fallback) const {
    const ConfigNode* n = find(path);
    if (!n) return fallback;
    const auto v = parse_i64(n->value());
    if (!v) throw ConfigError("not an integer: " + std::string(path));
    return *v;
}

std::uint64_t ConfigNode::get_u64_or(std::string_view path,
                                     std::uint64_t fallback) const {
    const ConfigNode* n = find(path);
    if (!n) return fallback;
    const auto v = parse_u64(n->value());
    if (!v) throw ConfigError("not an unsigned integer: " + std::string(path));
    return *v;
}

bool ConfigNode::get_bool_or(std::string_view path, bool fallback) const {
    const ConfigNode* n = find(path);
    if (!n) return fallback;
    const auto v = parse_bool(n->value());
    if (!v) throw ConfigError("not a boolean: " + std::string(path));
    return *v;
}

std::uint64_t ConfigNode::get_duration_ns_or(std::string_view path,
                                             std::uint64_t fallback_ns) const {
    const ConfigNode* n = find(path);
    if (!n) return fallback_ns;
    const auto v = parse_duration_ns(n->value());
    if (!v) throw ConfigError("not a duration: " + std::string(path));
    return *v;
}

namespace {

bool needs_quotes(const std::string& s) {
    if (s.empty()) return false;
    for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == '{' ||
            c == '}' || c == '"' || c == ';' || c == '#')
            return true;
    }
    return false;
}

std::string quoted(const std::string& s) {
    return needs_quotes(s) ? "\"" + s + "\"" : s;
}

}  // namespace

std::string ConfigNode::to_string(int indent) const {
    std::ostringstream os;
    const std::string pad(static_cast<std::size_t>(indent) * 4, ' ');
    if (!name_.empty()) {
        os << pad << quoted(name_);
        if (!value_.empty()) os << ' ' << quoted(value_);
        if (!children_.empty()) {
            os << " {\n";
            for (const auto& c : children_) os << c.to_string(indent + 1);
            os << pad << "}\n";
        } else {
            os << '\n';
        }
    } else {
        for (const auto& c : children_) os << c.to_string(indent);
    }
    return os.str();
}

namespace {

struct Token {
    enum Kind { kWord, kOpenBrace, kCloseBrace, kEnd } kind;
    std::string text;
    int line;
};

class Lexer {
  public:
    explicit Lexer(std::string_view text) : text_(text) {}

    Token next() {
        skip_ws_and_comments();
        if (pos_ >= text_.size()) return {Token::kEnd, "", line_};
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            return {Token::kOpenBrace, "{", line_};
        }
        if (c == '}') {
            ++pos_;
            return {Token::kCloseBrace, "}", line_};
        }
        if (c == '"') return quoted_word();
        return bare_word();
    }

    int line() const { return line_; }

  private:
    void skip_ws_and_comments() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c)) ||
                       c == ';') {
                // ';' is an inline entry separator, so several key/value
                // pairs can share a line: "sensors 100 ; interval 1s".
                ++pos_;
            } else if (c == '#') {
                while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
            } else {
                return;
            }
        }
    }

    Token quoted_word() {
        const int start_line = line_;
        ++pos_;  // opening quote
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\n') ++line_;
            if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
            out.push_back(text_[pos_++]);
        }
        if (pos_ >= text_.size())
            throw ConfigError("unterminated string at line " +
                              std::to_string(start_line));
        ++pos_;  // closing quote
        return {Token::kWord, std::move(out), start_line};
    }

    Token bare_word() {
        const int start_line = line_;
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isspace(static_cast<unsigned char>(c)) || c == '{' ||
                c == '}' || c == ';' || c == '#')
                break;
            out.push_back(c);
            ++pos_;
        }
        return {Token::kWord, std::move(out), start_line};
    }

    std::string_view text_;
    std::size_t pos_{0};
    int line_{1};
};

class Parser {
  public:
    Parser(std::string_view text, const std::filesystem::path& base_dir)
        : lexer_(text), base_dir_(base_dir) {}

    ConfigNode parse() {
        ConfigNode root;
        tok_ = lexer_.next();
        parse_children(root, /*top_level=*/true);
        return root;
    }

  private:
    void advance() { tok_ = lexer_.next(); }

    void parse_children(ConfigNode& parent, bool top_level) {
        while (true) {
            if (tok_.kind == Token::kEnd) {
                if (!top_level)
                    throw ConfigError("unexpected end of input, missing '}'");
                return;
            }
            if (tok_.kind == Token::kCloseBrace) {
                if (top_level)
                    throw ConfigError("unexpected '}' at line " +
                                      std::to_string(tok_.line));
                advance();
                return;
            }
            parse_entry(parent);
        }
    }

    void parse_entry(ConfigNode& parent) {
        if (tok_.kind != Token::kWord)
            throw ConfigError("expected key at line " +
                              std::to_string(tok_.line));
        std::string name = tok_.text;
        advance();

        if (name == "include" && tok_.kind == Token::kWord) {
            const std::filesystem::path inc = base_dir_ / tok_.text;
            advance();
            std::ifstream in(inc);
            if (!in)
                throw ConfigError("cannot open include file: " + inc.string());
            std::stringstream ss;
            ss << in.rdbuf();
            const std::string text = ss.str();  // must outlive the parser
            Parser sub(text, inc.parent_path());
            ConfigNode included = sub.parse();
            for (auto& c : included.children())
                parent.children().push_back(std::move(c));
            return;
        }

        std::string value;
        if (tok_.kind == Token::kWord) {
            value = tok_.text;
            advance();
        }
        ConfigNode& node = parent.add_child(std::move(name), std::move(value));
        if (tok_.kind == Token::kOpenBrace) {
            advance();
            parse_children(node, /*top_level=*/false);
        }
    }

    Lexer lexer_;
    Token tok_{Token::kEnd, "", 0};
    std::filesystem::path base_dir_;
};

}  // namespace

ConfigNode parse_config(std::string_view text) {
    return Parser(text, std::filesystem::current_path()).parse();
}

ConfigNode parse_config_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw ConfigError("cannot open config file: " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();  // must outlive the parser
    return Parser(text, std::filesystem::path(path).parent_path()).parse();
}

}  // namespace dcdb
