// Output checks. Each compares the program's output against a property or
// an independent computation, never against stored output, and each is
// fed a wrong value by self_test() to show that it can fail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "battery/chemistry.h"
#include "bench.h"
#include "core/similarity.h"
#include "core/value_iteration.h"
#include "math/emd.h"
#include "thermal/phone_thermal.h"
#include "util/rng.h"

namespace perfbench {

using namespace capman;

void CheckLog::expect(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failures_.push_back(what);
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

/// The chemistry's open-circuit voltage at full charge, the supremum of
/// its discharge curve: the nominal plateau plus half the swing.
double max_ocv_v(battery::Chemistry chemistry) {
  const auto& p = battery::chemistry_profile(chemistry);
  return p.nominal_voltage_v + 0.5 * p.voltage_swing_v;
}

double cell_energy_bound_j(battery::Chemistry chemistry, double label_mah) {
  const auto& p = battery::chemistry_profile(chemistry);
  const double coulombs = label_mah / 1000.0 * 3600.0 * p.usable_capacity_factor;
  return coulombs * max_ocv_v(chemistry);
}

}  // namespace

double stored_energy_bound_j(const sim::SimConfig& config, bool single_pack) {
  if (single_pack) {
    return cell_energy_bound_j(config.practice_chemistry,
                               config.practice_capacity_mah);
  }
  const auto& pack = config.pack_config;
  const double c = pack.supercap_capacitance.value();
  const double v = pack.supercap_voltage.value();
  return cell_energy_bound_j(pack.big_chemistry, pack.big_capacity_mah) +
         cell_energy_bound_j(pack.little_chemistry, pack.little_capacity_mah) +
         0.5 * c * v * v;
}

bool energy_within_bound(double delivered_j, double lost_j, double bound_j) {
  return delivered_j >= 0.0 && lost_j >= 0.0 &&
         delivered_j + lost_j <= bound_j;
}

bool activity_within_service(double big_s, double little_s,
                             double service_s) {
  // The engine accumulates both in steps of dt; allow rounding only.
  return big_s >= 0.0 && little_s >= 0.0 &&
         big_s + little_s <= service_s * (1.0 + 1e-9) + 1e-6;
}

bool decisions_match(std::uint64_t forwarded, std::uint64_t engine_consults) {
  return forwarded == engine_consults && forwarded > 0;
}

bool similarity_bound_holds(const core::MdpGraph& graph, double rho,
                            double* worst,
                            const std::vector<double>* values_override) {
  // Solved to tight precision with C_S = 1 and C_A = rho, the setting in
  // which the paper proves the bound.
  core::ValueIterationConfig vi;
  vi.rho = rho;
  vi.epsilon = 1e-12;
  const auto values = core::solve_values(graph, vi);
  core::SimilarityConfig sc;
  sc.c_s = 1.0;
  sc.c_a = rho;
  sc.epsilon = 1e-9;
  sc.max_iterations = 4000;
  sc.num_threads = 1;
  const auto sim = core::compute_structural_similarity(graph, sc);
  const std::vector<double>& v =
      values_override != nullptr ? *values_override : values.state_values;
  const double scale = 1.0 / (1.0 - rho);
  const double slack = 1e-5 * scale;
  double worst_excess = -1.0;
  for (std::size_t a = 0; a < graph.state_count(); ++a) {
    for (std::size_t b = a + 1; b < graph.state_count(); ++b) {
      const double gap = std::abs(v[a] - v[b]);
      const double allowed = sim.state_distance(a, b) * scale + slack;
      worst_excess = std::max(worst_excess, gap - allowed);
    }
  }
  if (worst != nullptr) *worst = worst_excess;
  return values.converged && sim.converged && worst_excess <= 0.0;
}

bool emd_matches_1d(std::uint64_t seed, std::size_t cases, double bias) {
  util::Rng rng{seed};
  for (std::size_t c = 0; c < cases; ++c) {
    const std::size_t n = 2 + rng.uniform_index(7);
    std::vector<double> p(n);
    std::vector<double> q(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = rng.uniform(0.0, 1.0) + 1e-3;
      q[i] = rng.uniform(0.0, 1.0) + 1e-3;
    }
    const double exact = math::emd_1d(p, q);
    const double flow = math::earth_movers_distance(
        math::Distribution{p}, math::Distribution{q},
        [bias](std::size_t i, std::size_t j) {
          return std::abs(static_cast<double>(i) - static_cast<double>(j)) +
                 (i != j ? bias : 0.0);
        });
    if (std::abs(exact - flow) > 1e-9 * std::max(1.0, exact)) return false;
  }
  return true;
}

bool thermal_ambient_holds(double zero_power_w) {
  thermal::PhoneThermalConfig config;
  const double ambient = config.ambient.value();
  thermal::PhoneThermal idle{config};
  idle.tec().turn_off();
  for (int i = 0; i < 2000; ++i) {
    idle.step(util::Watts{zero_power_w}, util::Watts{0.0}, util::Watts{0.0},
              util::Seconds{0.25});
  }
  const bool stays = std::abs(idle.cpu_temperature().value() - ambient) < 1e-9 &&
                     std::abs(idle.surface_temperature().value() - ambient) <
                         1e-9 &&
                     std::abs(idle.battery_temperature().value() - ambient) <
                         1e-9;
  thermal::PhoneThermal hot{config};
  hot.tec().turn_off();
  for (int i = 0; i < 2000; ++i) {
    hot.step(util::Watts{1.5}, util::Watts{0.2}, util::Watts{0.5},
             util::Seconds{0.25});
  }
  const bool rises = hot.cpu_temperature().value() > ambient + 0.5 &&
                     hot.surface_temperature().value() > ambient;
  return stays && rises;
}

bool snapshots_identical(const std::string& a, const std::string& b) {
  return !a.empty() && a == b;
}

std::string fleet_fingerprint(const sim::FleetResult& result) {
  // Every fleet/* instrument except the per-shard accounting, which
  // describes the layout rather than the result.
  std::string out;
  char value[64];
  const auto layout = [](const std::string& name) {
    return name.rfind("fleet/shard", 0) == 0;
  };
  for (const auto& c : result.metrics.counters) {
    if (layout(c.name)) continue;
    out += c.name + "=" + std::to_string(c.value) + "\n";
  }
  for (const auto& g : result.metrics.gauges) {
    if (layout(g.name)) continue;
    std::snprintf(value, sizeof value, "%.17g", g.value);
    out += g.name + "=" + value + "\n";
  }
  return out;
}

namespace {

/// A small graph with two decisions out of state 0, for the self-test.
core::MdpGraph tiny_graph() {
  std::vector<core::StateVertex> states{{0, {0, 1}}, {1, {2}}, {2, {}}};
  std::vector<core::ActionVertex> actions{
      {0, 0, {{1, 0.7, 0.9}, {2, 0.3, 0.1}}},
      {0, 1, {{2, 1.0, 0.2}}},
      {1, 0, {{0, 0.5, 0.6}, {2, 0.5, 0.3}}},
  };
  return core::MdpGraph::from_parts(std::move(states), std::move(actions));
}

}  // namespace

bool self_test(CheckLog& log) {
  bool ok = true;
  const auto both = [&](bool right, bool wrong, const std::string& name) {
    const bool good = right && !wrong;
    log.expect(good, "self-test: " + name);
    ok = ok && good;
  };

  sim::SimConfig config;
  const double bound = stored_energy_bound_j(config, false);
  both(energy_within_bound(0.6 * bound, 0.3 * bound, bound),
       energy_within_bound(0.8 * bound, 0.3 * bound, bound), "energy bound");
  both(activity_within_service(40.0, 60.0, 100.0),
       activity_within_service(40.0, 60.5, 100.0), "activity <= service");
  both(decisions_match(1234, 1234), decisions_match(1234, 1235),
       "decision count");
  both(snapshots_identical("{\"a\":1}", "{\"a\":1}"),
       snapshots_identical("{\"a\":1}", "{\"a\":2}"), "fleet identity");
  both(emd_matches_1d(7, 20), emd_matches_1d(7, 20, 0.25), "emd vs emd_1d");
  both(thermal_ambient_holds(), thermal_ambient_holds(0.3),
       "thermal ambient");

  const auto graph = tiny_graph();
  const double rho = 0.8;
  core::ValueIterationConfig vi;
  vi.rho = rho;
  vi.epsilon = 1e-12;
  std::vector<double> wrong = core::solve_values(graph, vi).state_values;
  wrong[0] += 10.0;  // beyond any distance / (1 - rho) = 5
  both(similarity_bound_holds(graph, rho),
       similarity_bound_holds(graph, rho, nullptr, &wrong),
       "similarity bound");
  return ok;
}

}  // namespace perfbench
