#include "common/units.hpp"

#include <functional>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "common/string_utils.hpp"

namespace dcdb {

namespace {

// Transparent hashing so parse_unit can look up a string_view without
// materialising a std::string per call (performance-* exemplar: this is
// on the per-reading path via SensorConfig parsing).
using UnitMap =
    std::unordered_map<std::string, Unit, StringHash, std::equal_to<>>;

UnitMap build_registry() {
    UnitMap reg;
    auto add = [&reg](const char* name, Dimension dim, double scale,
                      double offset = 0.0) {
        reg.emplace(name, Unit{name, dim, scale, offset});
    };

    add("", Dimension::kNone, 1.0);
    add("none", Dimension::kNone, 1.0);
    add("count", Dimension::kNone, 1.0);

    add("uW", Dimension::kPower, 1e-6);
    add("mW", Dimension::kPower, 1e-3);
    add("W", Dimension::kPower, 1.0);
    add("kW", Dimension::kPower, 1e3);
    add("MW", Dimension::kPower, 1e6);

    add("uJ", Dimension::kEnergy, 1e-6);
    add("mJ", Dimension::kEnergy, 1e-3);
    add("J", Dimension::kEnergy, 1.0);
    add("kJ", Dimension::kEnergy, 1e3);
    add("Wh", Dimension::kEnergy, 3600.0);
    add("kWh", Dimension::kEnergy, 3.6e6);

    add("C", Dimension::kTemperature, 1.0);
    add("degC", Dimension::kTemperature, 1.0);
    add("mC", Dimension::kTemperature, 1e-3);  // sysfs thermal millidegree
    add("K", Dimension::kTemperature, 1.0, -273.15);
    add("F", Dimension::kTemperature, 5.0 / 9.0, -32.0 * 5.0 / 9.0);

    add("B", Dimension::kBytes, 1.0);
    add("KB", Dimension::kBytes, 1e3);
    add("MB", Dimension::kBytes, 1e6);
    add("GB", Dimension::kBytes, 1e9);
    add("KiB", Dimension::kBytes, 1024.0);
    add("MiB", Dimension::kBytes, 1024.0 * 1024.0);

    add("B/s", Dimension::kBandwidth, 1.0);
    add("KB/s", Dimension::kBandwidth, 1e3);
    add("MB/s", Dimension::kBandwidth, 1e6);
    add("GB/s", Dimension::kBandwidth, 1e9);

    add("Hz", Dimension::kFrequency, 1.0);
    add("kHz", Dimension::kFrequency, 1e3);
    add("MHz", Dimension::kFrequency, 1e6);
    add("GHz", Dimension::kFrequency, 1e9);

    add("ns", Dimension::kTime, 1e-9);
    add("us", Dimension::kTime, 1e-6);
    add("ms", Dimension::kTime, 1e-3);
    add("s", Dimension::kTime, 1.0);
    add("min", Dimension::kTime, 60.0);
    add("h", Dimension::kTime, 3600.0);

    add("l/s", Dimension::kFlow, 1.0);
    add("l/min", Dimension::kFlow, 1.0 / 60.0);
    add("l/h", Dimension::kFlow, 1.0 / 3600.0);
    add("m3/h", Dimension::kFlow, 1000.0 / 3600.0);

    add("uV", Dimension::kVoltage, 1e-6);
    add("mV", Dimension::kVoltage, 1e-3);
    add("V", Dimension::kVoltage, 1.0);

    add("mA", Dimension::kCurrent, 1e-3);
    add("A", Dimension::kCurrent, 1.0);

    add("%", Dimension::kPercent, 1.0);
    add("percent", Dimension::kPercent, 1.0);

    return reg;
}

const UnitMap& registry() {
    static const auto reg = build_registry();
    return reg;
}

}  // namespace

Unit parse_unit(std::string_view name) {
    const auto& reg = registry();
    const auto it = reg.find(name);
    if (it != reg.end()) return it->second;
    // Unknown unit: treat as an opaque dimensionless tag.
    return Unit{std::string(name), Dimension::kNone, 1.0, 0.0};
}

double convert_unit(double value, const Unit& from, const Unit& to) {
    if (from.dim == Dimension::kNone || to.dim == Dimension::kNone)
        return value;  // pass-through for unannotated sensors
    if (from.dim != to.dim)
        throw Error("incompatible units: " + from.name + " -> " + to.name);
    const double canonical = value * from.scale + from.offset;
    return (canonical - to.offset) / to.scale;
}

}  // namespace dcdb
