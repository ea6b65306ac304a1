#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

namespace dcdb::telemetry {

namespace {

std::string exposition_name(const std::string& prefix,
                            const std::string& dotted) {
    std::string out = prefix.empty() ? "" : prefix + "_";
    for (const char c : dotted) {
        out.push_back(c == '.' ? '_' : c);
    }
    return out;
}

void append_histogram(std::string& out, const std::string& name,
                      const HistogramSnapshot& snap) {
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t k = 0; k < snap.buckets.size(); ++k) {
        if (snap.buckets[k] == 0) continue;
        cumulative += snap.buckets[k];
        if (k == snap.buckets.size() - 1) break;  // folded into +Inf below
        out += name + "_bucket{le=\"" +
               std::to_string(histogram_bucket_bound(k)) + "\"} " +
               std::to_string(cumulative) + "\n";
    }
    const std::uint64_t total = snap.count();
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(total) + "\n";
    out += name + "_sum " + std::to_string(snap.sum) + "\n";
    out += name + "_count " + std::to_string(total) + "\n";
}

/// "name_bucket{le=\"8191\"} 42" -> (le, cumulative). Returns false for
/// anything that does not look like a bucket sample.
bool parse_bucket_line(const std::string& line, std::string& base,
                       double& le, std::uint64_t& cumulative) {
    const auto brace = line.find('{');
    if (brace == std::string::npos) return false;
    const std::string name = line.substr(0, brace);
    const std::string suffix = "_bucket";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
        return false;
    }
    const auto le_pos = line.find("le=\"", brace);
    if (le_pos == std::string::npos) return false;
    const auto le_end = line.find('"', le_pos + 4);
    if (le_end == std::string::npos) return false;
    const std::string le_text = line.substr(le_pos + 4, le_end - le_pos - 4);
    const auto close = line.find('}', le_end);
    if (close == std::string::npos) return false;

    base = name.substr(0, name.size() - suffix.size());
    le = le_text == "+Inf" ? std::numeric_limits<double>::infinity()
                           : std::strtod(le_text.c_str(), nullptr);
    cumulative = std::strtoull(line.c_str() + close + 1, nullptr, 10);
    return true;
}

std::string format_quantile(double v) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(0) << v;
    return os.str();
}

}  // namespace

std::string to_prometheus(const MetricRegistry& registry,
                          const std::string& name_prefix) {
    registry.refresh();
    std::string out;
    for (const auto& entry : registry.entries()) {
        const std::string name = exposition_name(name_prefix, entry.name);
        switch (entry.kind) {
            case MetricKind::kCounter:
                out += "# TYPE " + name + " counter\n";
                out += name + " " + std::to_string(entry.counter->value()) +
                       "\n";
                break;
            case MetricKind::kGauge:
                out += "# TYPE " + name + " gauge\n";
                out += name + " " + std::to_string(entry.gauge->value()) +
                       "\n";
                break;
            case MetricKind::kHistogram:
                append_histogram(out, name, entry.histogram->snapshot());
                break;
        }
    }
    return out;
}

std::string to_json(const MetricRegistry& registry) {
    registry.refresh();
    std::string counters, gauges, histograms;
    for (const auto& entry : registry.entries()) {
        switch (entry.kind) {
            case MetricKind::kCounter:
                if (!counters.empty()) counters += ",";
                counters += "\"" + entry.name +
                            "\":" + std::to_string(entry.counter->value());
                break;
            case MetricKind::kGauge:
                if (!gauges.empty()) gauges += ",";
                gauges += "\"" + entry.name +
                          "\":" + std::to_string(entry.gauge->value());
                break;
            case MetricKind::kHistogram: {
                const auto snap = entry.histogram->snapshot();
                if (!histograms.empty()) histograms += ",";
                histograms += "\"" + entry.name + "\":{\"count\":" +
                              std::to_string(snap.count()) +
                              ",\"sum\":" + std::to_string(snap.sum) +
                              ",\"p50\":" + format_quantile(
                                                snap.quantile(0.5)) +
                              ",\"p99\":" + format_quantile(
                                                snap.quantile(0.99));
                // A trace ID from the worst populated bucket, when the
                // histogram was recorded with exemplars: links this
                // aggregate to one concrete /traces entry.
                if (const std::uint64_t ex = snap.worst_exemplar()) {
                    char hex[24];
                    std::snprintf(hex, sizeof hex, "%016llx",
                                  static_cast<unsigned long long>(ex));
                    histograms += std::string(",\"exemplar\":\"") + hex +
                                  "\"";
                }
                histograms += "}";
                break;
            }
        }
    }
    return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
           "},\"histograms\":{" + histograms + "}}";
}

double ParsedHistogram::quantile(double q) const {
    if (count == 0 || cumulative.empty()) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(count);
    double prev_le = -1.0;
    std::uint64_t prev_cum = 0;
    for (const auto& [le, cum] : cumulative) {
        if (static_cast<double>(cum) >= target && cum > prev_cum) {
            const double lo = prev_le + 1.0;
            // The +Inf bucket has no finite bound to interpolate toward.
            if (le == std::numeric_limits<double>::infinity()) return lo;
            const double frac = (target - static_cast<double>(prev_cum)) /
                                static_cast<double>(cum - prev_cum);
            return lo + (le - lo) * frac;
        }
        prev_le = le;
        prev_cum = cum;
    }
    return prev_le < 0.0 ? 0.0 : prev_le;
}

ParsedMetrics parse_prometheus(const std::string& text) {
    ParsedMetrics out;

    // Pass 1: "# TYPE <name> histogram" comments tell histogram families
    // apart from plain counters that merely end in _sum/_count.
    std::map<std::string, bool> is_histogram;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("# TYPE ", 0) != 0) continue;
        std::istringstream fields(line.substr(7));
        std::string name, type;
        fields >> name >> type;
        if (!name.empty()) is_histogram[name] = type == "histogram";
    }

    // Pass 2: samples.
    lines.clear();
    lines.str(text);
    while (std::getline(lines, line)) {
        if (line.empty() || line.front() == '#') continue;

        std::string base;
        double le = 0.0;
        std::uint64_t cum = 0;
        if (parse_bucket_line(line, base, le, cum)) {
            out.histograms[base].cumulative.emplace_back(le, cum);
            continue;
        }

        const auto space = line.find(' ');
        if (space == std::string::npos) continue;
        const std::string name = line.substr(0, space);
        const double value = std::strtod(line.c_str() + space + 1, nullptr);

        for (const char* suffix : {"_sum", "_count"}) {
            const std::size_t n = std::string(suffix).size();
            if (name.size() > n &&
                name.compare(name.size() - n, n, suffix) == 0) {
                const std::string family = name.substr(0, name.size() - n);
                if (is_histogram.count(family) && is_histogram[family]) {
                    if (std::string(suffix) == "_sum") {
                        out.histograms[family].sum = value;
                    } else {
                        out.histograms[family].count =
                            static_cast<std::uint64_t>(value);
                    }
                    base = family;  // mark consumed
                    break;
                }
            }
        }
        if (base.empty()) out.scalars[name] = value;
    }

    for (auto& [name, hist] : out.histograms) {
        std::sort(hist.cumulative.begin(), hist.cumulative.end());
    }
    return out;
}

std::string render_perf_table(const ParsedMetrics& metrics,
                              std::size_t top_scalars) {
    std::vector<std::pair<std::string, double>> sorted(
        metrics.scalars.begin(), metrics.scalars.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
    });
    if (sorted.size() > top_scalars) sorted.resize(top_scalars);

    std::ostringstream os;
    os << std::left << std::setw(52) << "metric" << std::right
       << std::setw(16) << "value" << "\n";
    for (const auto& [name, value] : sorted) {
        os << std::left << std::setw(52) << name << std::right
           << std::setw(16) << std::fixed << std::setprecision(0) << value
           << "\n";
    }
    if (!metrics.histograms.empty()) {
        os << "\n"
           << std::left << std::setw(52) << "histogram" << std::right
           << std::setw(10) << "count" << std::setw(14) << "p50"
           << std::setw(14) << "p99" << "\n";
        for (const auto& [name, hist] : metrics.histograms) {
            os << std::left << std::setw(52) << name << std::right
               << std::setw(10) << hist.count << std::setw(14)
               << format_quantile(hist.quantile(0.5)) << std::setw(14)
               << format_quantile(hist.quantile(0.99)) << "\n";
        }
    }
    return os.str();
}

}  // namespace dcdb::telemetry
