// Figure 10 / Case Study 2: application characterization through
// fine-grained monitoring — probability density functions of per-core
// instructions-per-Watt for the four CORAL-2 applications, sampled at
// 100 ms on the CooLMUC-3 (Knights Landing) model.
//
// Findings to reproduce in shape: Kripke and Quicksilver show high mean
// computational density; LAMMPS and AMG sit lower, and both exhibit
// multiple modes from their phase-structured behavior.
//
// The data path is the real perfevents plugin (per-core instruction
// counters in delta mode plus node power) driven deterministically at a
// 100 ms cadence over simulated time, exactly the configuration of the
// paper's case study.
#include <cstdio>
#include <map>

#include "analysis/kde.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "common/clock.hpp"
#include "core/sensor_cache.hpp"
#include "plugins/devices.hpp"
#include "pusher/plugin.hpp"
#include "sim/apps.hpp"
#include "sim/arch.hpp"

using namespace dcdb;

namespace {

constexpr int kCores = 64;           // physical KNL cores
constexpr double kIntervalS = 0.1;   // 100 ms sampling
constexpr double kRunSimSeconds = 120.0;

/// Drive the perfevents plugin over simulated time and return the
/// per-core instructions-per-Watt samples (one per core and interval).
std::vector<double> characterize(const sim::AppModel& app) {
    plugins::register_builtin_plugins();
    plugins::DeviceRegistry::instance().add_pmu(
        "pmu_" + app.name,
        std::make_shared<sim::PerfCounterModel>(sim::knights_landing(), app,
                                                /*seed=*/77));

    auto plugin = pusher::PluginRegistry::instance().make("perfevents");
    pusher::PluginContext ctx;
    ctx.topic_prefix = "/cm3/node0";
    plugin->configure(
        parse_config("device pmu_" + app.name +
                     "\n"
                     "group cpu { interval 100ms ; counters instructions ; "
                     "cores 0-" + std::to_string(kCores - 1) +
                     " }\n"
                     "group pwr { interval 100ms ; counters power ; "
                     "cores 0-0 }\n"),
        ctx);

    const TimestampNs t0 = kNsPerSec;  // deterministic timeline
    const auto steps =
        static_cast<std::size_t>(kRunSimSeconds / kIntervalS);
    const auto interval_ns =
        static_cast<TimestampNs>(kIntervalS * 1e9);
    // A cache window over the whole run keeps every reading.
    CacheSet cache(static_cast<TimestampNs>(2 * kRunSimSeconds * 1e9));
    for (std::size_t k = 0; k <= steps; ++k) {
        const TimestampNs ts = t0 + k * interval_ns;
        for (const auto& group : plugin->groups())
            group->read_all(ts, &cache);
    }

    // Gather per-interval instruction deltas and power readings.
    std::map<TimestampNs, double> power_w;
    std::vector<std::vector<Reading>> core_series;
    for (const auto& group : plugin->groups()) {
        for (const auto& sensor : group->sensors()) {
            auto readings = cache.view(sensor->topic(), 0, kTimestampMax);
            if (sensor->name() == "power") {
                for (const auto& r : readings)
                    power_w[r.ts] = static_cast<double>(r.value) / 1000.0;
            } else {
                core_series.push_back(std::move(readings));
            }
        }
    }

    std::vector<double> samples;
    for (const auto& series : core_series) {
        for (const auto& r : series) {
            const auto p = power_w.find(r.ts);
            if (p == power_w.end() || p->second <= 0) continue;
            samples.push_back(static_cast<double>(r.value) / p->second);
        }
    }
    return samples;
}

/// Count pronounced local maxima of a density curve.
int count_modes(const std::vector<std::pair<double, double>>& curve) {
    double peak = 0;
    for (const auto& [x, y] : curve) peak = std::max(peak, y);
    int modes = 0;
    for (std::size_t i = 1; i + 1 < curve.size(); ++i) {
        if (curve[i].second > curve[i - 1].second &&
            curve[i].second >= curve[i + 1].second &&
            curve[i].second > 0.15 * peak)
            ++modes;
    }
    return modes;
}

}  // namespace

int main() {
    bench::print_header(
        "Case study 2: application characterization (instr/W)",
        "paper Figure 10 / Section 7.2");

    std::map<std::string, std::vector<double>> app_samples;
    double global_max = 0;
    for (const auto& app : sim::coral2_apps()) {
        auto samples = characterize(app);
        for (const double s : samples) global_max = std::max(global_max, s);
        app_samples[app.name] = std::move(samples);
    }

    analysis::Table table({"application", "samples", "mean instr/W",
                           "p10", "p90", "modes", "paper shape"});
    std::vector<double> xs;
    std::vector<std::pair<std::string, std::vector<double>>> series;
    constexpr std::size_t kCurvePoints = 73;
    for (std::size_t i = 0; i < kCurvePoints; ++i)
        xs.push_back(global_max * static_cast<double>(i) /
                     (kCurvePoints - 1));

    for (const auto& [name, samples] : app_samples) {
        const auto curve =
            analysis::kde_curve(samples, 0.0, global_max, kCurvePoints);
        std::vector<double> ys;
        ys.reserve(curve.size());
        for (const auto& [x, y] : curve) ys.push_back(y);
        series.emplace_back(name, std::move(ys));

        const char* expectation =
            (name == "kripke" || name == "quicksilver")
                ? "high mean, concentrated"
                : "lower mean, multi-modal";
        table.cell(name)
            .cell(static_cast<std::uint64_t>(samples.size()))
            .cell(analysis::mean(samples), 0)
            .cell(analysis::quantile(samples, 0.10), 0)
            .cell(analysis::quantile(samples, 0.90), 0)
            .cell(static_cast<std::uint64_t>(
                count_modes(analysis::kde_curve(samples, 0.0, global_max,
                                                200))))
            .cell(expectation)
            .end_row();
    }
    std::fputs(table.str().c_str(), stdout);

    std::printf("\nfitted probability density functions (x = per-core "
                "instructions per Watt per 100ms):\n");
    std::fputs(analysis::ascii_chart(xs, series).c_str(), stdout);

    const double mean_kripke = analysis::mean(app_samples.at("kripke"));
    const double mean_amg = analysis::mean(app_samples.at("amg"));
    std::printf(
        "\nkripke/amg computational-density ratio: %.1fx "
        "(paper: kripke & quicksilver high, amg & lammps low)\n",
        mean_kripke / mean_amg);
    return 0;
}
