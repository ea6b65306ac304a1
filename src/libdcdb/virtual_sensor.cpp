#include "libdcdb/virtual_sensor.hpp"

#include <cmath>
#include <unordered_map>

#include "common/units.hpp"
#include "libdcdb/connection.hpp"

namespace dcdb::lib {

namespace {

/// Marks a topic as being evaluated for the guard's lifetime. Unwinding
/// must always remove the mark: if parse_expression or a nested operand
/// query throws while the topic stays in `in_progress_`, every later
/// evaluation of it on the same evaluator would be misreported as a
/// cyclic definition.
class InProgressGuard {
  public:
    InProgressGuard(std::set<std::string>& set, const std::string& topic)
        : set_(set) {
        auto [it, inserted] = set_.insert(topic);
        it_ = it;
        inserted_ = inserted;
    }
    ~InProgressGuard() {
        if (inserted_) set_.erase(it_);
    }

    InProgressGuard(const InProgressGuard&) = delete;
    InProgressGuard& operator=(const InProgressGuard&) = delete;

  private:
    std::set<std::string>& set_;
    std::set<std::string>::iterator it_;
    bool inserted_;
};

}  // namespace

std::vector<Sample> VirtualEvaluator::operand_series(const std::string& topic,
                                                     TimestampNs t0,
                                                     TimestampNs t1) {
    const auto md = conn_.metadata_store_.get(topic);
    if (md && md->is_virtual) {
        if (in_progress_.count(topic))
            throw QueryError("cyclic virtual sensor definition at " + topic);
        return evaluate(topic, t0, t1);
    }

    // Physical sensor: scale to physical units, then convert to the
    // dimension's canonical unit so operands with different prefixes
    // (mW vs kW) combine correctly.
    const double scale = md ? md->scale : 1.0;
    const Unit unit = parse_unit(md ? md->unit : "");
    const Unit canonical{"", unit.dim, 1.0, 0.0};
    std::vector<Sample> out;
    for (const auto& r : conn_.query_raw(topic, t0, t1)) {
        const double physical = static_cast<double>(r.value) * scale;
        out.push_back({r.ts, convert_unit(physical, unit, canonical)});
    }
    return out;
}

std::vector<Sample> VirtualEvaluator::evaluate(const std::string& topic,
                                               TimestampNs t0,
                                               TimestampNs t1) {
    const auto md = conn_.metadata_store_.get(topic);
    if (!md || !md->is_virtual)
        throw QueryError("not a virtual sensor: " + topic);

    // Lazy reuse: previously computed results were written back.
    {
        const auto cached = conn_.query_raw(topic, t0, t1);
        if (!cached.empty()) {
            // Consider the cache usable if it spans the requested window
            // (up to one nominal step of slack at each end).
            const TimestampNs slack =
                md->interval_ns ? 2 * md->interval_ns : 2 * kNsPerSec;
            const bool covers =
                cached.front().ts <= t0 + slack &&
                cached.back().ts + slack >= t1;
            if (covers) {
                std::vector<Sample> out;
                out.reserve(cached.size());
                for (const auto& r : cached)
                    out.push_back(
                        {r.ts, static_cast<double>(r.value) * md->scale});
                return out;
            }
        }
    }

    std::unordered_map<std::string, std::vector<Sample>> series;
    ExprPtr expr;
    const std::vector<Sample>* grid_source = nullptr;
    {
        const InProgressGuard guard(in_progress_, topic);
        expr = parse_expression(md->expression);
        const auto operands = expression_operands(*expr);
        if (operands.empty())
            throw QueryError("virtual sensor without operands: " + topic);

        for (const auto& operand : operands) {
            auto s = operand_series(operand, t0, t1);
            if (s.empty())
                return {};  // an operand has no data in this window
            auto [it, ok] = series.emplace(operand, std::move(s));
            if (!grid_source || it->second.size() > grid_source->size())
                grid_source = &it->second;
        }
    }

    // Evaluate on the densest operand's grid; interpolate the rest.
    std::vector<Sample> result;
    result.reserve(grid_source->size());
    for (const auto& grid_point : *grid_source) {
        const TimestampNs ts = grid_point.ts;
        const double value = evaluate_expression(
            *expr, [&](const std::string& operand) {
                return interpolate_at(series.at(operand), ts);
            });
        result.push_back({ts, value});
    }

    // Write back for reuse ("results of previous queries are written
    // back to a Storage Backend"), and quantize the returned values
    // identically, so a cached re-query returns bit-identical results.
    const double scale = md->scale != 0.0 ? md->scale : 1.0;
    std::vector<TopicReading> stored;
    stored.reserve(result.size());
    for (auto& sample : result) {
        const auto value =
            static_cast<Value>(std::llround(sample.value / scale));
        stored.push_back({topic, {sample.ts, value}});
        sample.value = static_cast<double>(value) * scale;
    }
    conn_.insert(stored, md->ttl_s);
    return result;
}

}  // namespace dcdb::lib
