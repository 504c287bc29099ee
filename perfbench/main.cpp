// perfbench: the end-to-end benchmark of the capman simulator.
//
//   perfbench --workload fleet_dual|fleet_capman|sim_budget --seed N
//             --seconds S --trace 0|1
//   perfbench --self-test
//
// Untraced (--trace 0) runs time the workload and print the end-to-end
// metrics; traced runs (--trace 1) print the per-layer metrics instead
// (layers.cpp). Either way the last line of stdout is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// README.md describes the workloads, the metrics and their statistics.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "util/parse.h"

namespace perfbench {
namespace {

using namespace capman;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

void usage() {
  std::cerr << "usage: perfbench --workload fleet_dual|fleet_capman|"
               "sim_budget --seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n";
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string value = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--self-test") {
      o.self_test = true;
      continue;
    }
    ++i;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      const auto v = util::parse_u64(value);
      if (!v) return false;
      o.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = util::parse_double(value);
      if (!v || *v <= 0.0) return false;
      o.seconds = *v;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else {
      return false;
    }
  }
  return o.self_test || o.workload == "fleet_dual" ||
         o.workload == "fleet_capman" || o.workload == "sim_budget";
}

/// The process's resident-set high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the launching
/// process's memory does not leak into it.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void common_checks(CheckLog& log, std::uint64_t seed) {
  log.expect(emd_matches_1d(seed, 200), "earth_movers_distance == emd_1d");
  log.expect(thermal_ambient_holds(), "PhoneThermal ambient / heating");
  CheckLog self;
  log.expect(self_test(self), "check self-test");
}

void check_graphs(CheckLog& log, const std::vector<core::MdpGraph>& graphs,
                  double rho) {
  log.expect(!graphs.empty(), "captured at least one MDP graph");
  for (const auto& g : graphs) {
    double worst = 0.0;
    const bool holds = similarity_bound_holds(g, rho, &worst);
    log.expect(holds, "|V(u)-V(v)| <= delta_S/(1-rho) on a " +
                          std::to_string(g.state_count()) + "-state graph (" +
                          std::to_string(worst) + ")");
  }
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  MetricMap metrics;
};

/// Per-device replication of the fleet chunks through ExperimentRunner
/// with the forwarding policy: per-device checks, decision counts, and an
/// exact comparison of the replicated aggregates with the fleet's.
struct Replication {
  std::uint64_t consults = 0;
  std::vector<core::MdpGraph> graphs;
};

Replication replicate_fleet(const FleetWorkload& w,
                            const std::vector<sim::FleetResult>& fleet,
                            CheckLog& log) {
  const std::size_t n = w.device_count();
  struct DeviceOut {
    std::vector<sim::SimResult> results;
    std::vector<std::uint64_t> forwarded;
    std::vector<double> bounds;
    std::vector<core::MdpGraph> graphs;
  };
  std::vector<DeviceOut> out(n);
  parallel_devices(n, [&](std::size_t i) {
    const auto cfg = w.chunk_config(i / w.devices_per_chunk);
    const auto d = resolve_fleet_device(cfg, i % w.devices_per_chunk);
    const sim::ExperimentRunner runner{
        device::PhoneModel{d.phone},
        {d.config, d.spec.seed, std::nullopt, cfg.capman}};
    for (const auto kind : cfg.policies) {
      ForwardingPolicy::Probe probe;
      probe.capture_graphs = true;
      probe.max_graphs = 1000;
      ForwardingPolicy policy{runner.build_policy(kind), &probe};
      out[i].results.push_back(runner.run(d.trace, policy));
      out[i].forwarded.push_back(policy.decisions());
      out[i].bounds.push_back(
          stored_energy_bound_j(d.config, policy.wants_single_pack()));
      if (!probe.graphs.empty()) {
        out[i].graphs.push_back(std::move(probe.graphs.back()));
      }
    }
  });

  Replication rep;
  bool energy_ok = true;
  bool activity_ok = true;
  bool decisions_ok = true;
  for (std::size_t chunk = 0; chunk < w.chunks; ++chunk) {
    const auto cfg = w.chunk_config(chunk);
    for (std::size_t p = 0; p < cfg.policies.size(); ++p) {
      sim::PolicyAggregate agg;
      agg.kind = cfg.policies[p];
      for (std::size_t j = 0; j < w.devices_per_chunk; ++j) {
        const auto& dev = out[chunk * w.devices_per_chunk + j];
        const auto& r = dev.results[p];
        agg.add(r, false);
        const auto consults = r.metrics.counter_or("engine/consults");
        rep.consults += consults;
        energy_ok = energy_ok && energy_within_bound(r.energy_delivered_j,
                                                     r.energy_lost_j,
                                                     dev.bounds[p]);
        activity_ok = activity_ok &&
                      activity_within_service(r.big_active_s,
                                              r.little_active_s,
                                              r.service_time_s);
        decisions_ok =
            decisions_ok && decisions_match(dev.forwarded[p], consults);
      }
      const auto* f = fleet[chunk].find(cfg.policies[p]);
      const bool same = f != nullptr && f->devices == agg.devices &&
                        f->lifetime_us == agg.lifetime_us &&
                        f->energy_delivered_mj == agg.energy_delivered_mj &&
                        f->switch_total == agg.switch_total;
      log.expect(same, "fleet chunk " + std::to_string(chunk) + " " +
                           sim::to_string(cfg.policies[p]) +
                           " equals its per-device replication");
    }
  }
  log.expect(energy_ok, "delivered + lost <= stored energy, every device");
  log.expect(activity_ok,
             "big_active + little_active <= service, every device");
  log.expect(decisions_ok, "forwarded decisions == engine/consults");
  for (auto& dev : out) {
    for (auto& g : dev.graphs) rep.graphs.push_back(std::move(g));
  }
  return rep;
}

Result run_fleet(const Options& o, const FleetWorkload& w) {
  Result res;
  CheckLog log;
  std::vector<sim::FleetConfig> configs;
  for (std::size_t k = 0; k < w.chunks; ++k) {
    configs.push_back(w.chunk_config(k));
  }
  // Set-up ends with an untimed warm-up over the first chunks (a few
  // tenths of a second of work, so that the set-up time is steady too).
  for (std::size_t k = 0; k < w.warmup_chunks; ++k) {
    (void)sim::FleetRunner{configs[k]}.run();
  }
  const double setup_s = seconds_since(process_start());

  std::vector<sim::FleetResult> results(w.chunks);
  std::vector<std::uint64_t> allocs(w.chunks, 0);
  bool repeatable = true;
  PassTimer timer;
  timer.run(w.chunks, o.seconds, 2, [&](std::size_t k) {
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    const sim::FleetRunner runner{configs[k]};
    auto result = runner.run();
    const double s = seconds_since(start);
    allocs[k] = allocations() - a0;
    if (timer.passes > 0) {
      repeatable = repeatable && fleet_fingerprint(result) ==
                                     fleet_fingerprint(results[k]);
    }
    results[k] = std::move(result);
    return s;
  });
  const auto checks_start = Clock::now();
  res.attempted = timer.passes * w.device_count();
  log.expect(repeatable, "every pass reproduces the fleet metrics");

  // The heap one fleet run needs: the first 16 chunks (every stratum) run
  // again one after another, counting the heap bytes live at once.
  start_heap_peak();
  for (std::size_t k = 0; k < 16; ++k) {
    (void)sim::FleetRunner{configs[k]}.run();
  }
  const double heap_mb = static_cast<double>(stop_heap_peak()) / 1e6;

  // Determinism contract: nproc workers and other shard counts give the
  // bit-identical metrics the 1-worker timed runs gave (on one block of
  // 16 chunks, which holds every stratum).
  bool identical = true;
  for (std::size_t k = 0; k < 16; ++k) {
    auto cfg = configs[k];
    cfg.threads = nproc();
    cfg.shard_count = 3;
    identical = identical &&
                snapshots_identical(
                    fleet_fingerprint(sim::FleetRunner{cfg}.run()),
                    fleet_fingerprint(results[k]));
  }
  auto cfg0 = configs[0];
  cfg0.threads = nproc();
  identical = identical &&
              snapshots_identical(
                  fleet_fingerprint(sim::FleetRunner{cfg0}.run()),
                  fleet_fingerprint(results[0]));
  log.expect(identical,
             "fleet metrics identical at 1/nproc workers and two shard "
             "counts");

  Replication rep = replicate_fleet(w, results, log);
  if (rep.graphs.empty()) rep.graphs = capman_probe_graphs(w, 2, 1000);
  check_graphs(log, largest_graphs(std::move(rep.graphs), 3),
               configs[0].capman.rho);
  common_checks(log, o.seed);
  log.expect(peak_live_threads() <= nproc(), "at most nproc threads alive");

  std::uint64_t alloc_total = 0;
  for (auto a : allocs) alloc_total += a;
  std::uint64_t life_us = 0;
  std::uint64_t devices = 0;
  for (const auto& r : results) {
    for (const auto& agg : r.policies) {
      life_us += static_cast<std::uint64_t>(agg.lifetime_us.raw());
      devices += agg.devices;
    }
  }
  const double total = timer.total_s();
  const double n = static_cast<double>(w.device_count());
  res.metrics["setup_s"] = {setup_s, "s"};
  res.metrics["devices_per_s"] = {n / total, "devices/s"};
  res.metrics["decisions_per_s"] = {
      static_cast<double>(rep.consults) / total, "decisions/s"};
  res.metrics["peak_heap_mb"] = {heap_mb, "MB"};
  res.metrics["allocs_per_device"] = {static_cast<double>(alloc_total) / n,
                                      "count"};
  res.metrics["service_s"] = {
      static_cast<double>(life_us) / 1e6 / static_cast<double>(devices),
      "sim_s"};
  std::cerr << "perfbench: " << o.workload << " " << timer.passes
            << " passes over " << w.device_count() << " devices, "
            << log.checks() << " checks in " << seconds_since(checks_start)
            << " s\n";
  std::cerr << "perfbench: pass seconds";
  for (double s : timer.pass_s) std::cerr << " " << s;
  std::cerr << "; fastest chunks sum to " << timer.wall_total_s()
            << " s here, " << timer.total_s() << " s on the reference host\n";
  res.correct = log.ok();
  return res;
}

Result run_sim_budget(const Options& o, const std::string& out_dir) {
  Result res;
  CheckLog log;
  const std::string sinks = out_dir + "/sim_budget_sinks";
  clear_dir(sinks);
  const SimBudgetWorkload w = make_sim_budget(sinks);
  const device::PhoneModel phone{device::nexus_profile()};
  const sim::ExperimentRunner runner{phone, w.options(true)};
  const auto& kinds = sim::all_policy_kinds();
  const std::size_t chunks = w.traces.size() * kinds.size();
  // Set-up ends with an untimed warm-up: Dual on every trace.
  for (const auto& trace : w.traces) {
    (void)runner.run(trace, sim::PolicyKind::kDual);
  }
  const double setup_s = seconds_since(process_start());

  std::vector<sim::SimResult> results(chunks);
  std::vector<std::uint64_t> allocs(chunks, 0);
  bool repeatable = true;
  PassTimer timer;
  timer.run(chunks, o.seconds, 2, [&](std::size_t k) {
    clear_dir(sinks);  // sinks append; start every run from empty files
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    auto r = runner.run(w.traces[k / kinds.size()], kinds[k % kinds.size()]);
    const double s = seconds_since(start);
    allocs[k] = allocations() - a0;
    if (timer.passes > 0) {
      repeatable = repeatable &&
                   r.service_time_s == results[k].service_time_s &&
                   r.energy_delivered_j == results[k].energy_delivered_j;
    }
    results[k] = std::move(r);
    return s;
  });
  const auto checks_start = Clock::now();
  res.attempted = timer.passes * chunks;
  log.expect(repeatable, "every pass reproduces every discharge cycle");

  // The heap one discharge cycle needs: every policy on the first trace
  // again, counting the heap bytes live at once.
  start_heap_peak();
  for (const auto kind : kinds) {
    clear_dir(sinks);
    (void)runner.run(w.traces[0], kind);
  }
  const double heap_mb = static_cast<double>(stop_heap_peak()) / 1e6;

  std::uint64_t consults = 0;
  bool energy_ok = true;
  bool activity_ok = true;
  double life = 0.0;
  for (std::size_t k = 0; k < chunks; ++k) {
    const auto& r = results[k];
    const auto kind = kinds[k % kinds.size()];
    consults += r.metrics.counter_or("engine/consults");
    energy_ok = energy_ok &&
                energy_within_bound(
                    r.energy_delivered_j, r.energy_lost_j,
                    stored_energy_bound_j(runner.config(),
                                          kind == sim::PolicyKind::kPractice));
    activity_ok = activity_ok && activity_within_service(r.big_active_s,
                                                         r.little_active_s,
                                                         r.service_time_s);
    life += r.service_time_s;
  }
  log.expect(energy_ok, "delivered + lost <= stored energy, every run");
  log.expect(activity_ok, "big_active + little_active <= service, every run");

  // The forwarding policy's own decision count against engine/consults,
  // every policy on the first trace; CAPMAN's graphs feed the bound check.
  std::vector<core::MdpGraph> graphs;
  bool decisions_ok = true;
  for (std::size_t p = 0; p < kinds.size(); ++p) {
    clear_dir(sinks);
    ForwardingPolicy::Probe probe;
    probe.capture_graphs = true;
    probe.max_graphs = 100000;
    ForwardingPolicy policy{runner.build_policy(kinds[p]), &probe};
    const auto r = runner.run(w.traces[0], policy);
    decisions_ok = decisions_ok &&
                   decisions_match(policy.decisions(),
                                   r.metrics.counter_or("engine/consults")) &&
                   r.service_time_s == results[p].service_time_s;
    for (auto& g : probe.graphs) graphs.push_back(std::move(g));
  }
  log.expect(decisions_ok,
             "forwarded decisions == engine/consults, and the wrapper "
             "changes no result");
  check_graphs(log, largest_graphs(std::move(graphs), 2), 0.8);
  common_checks(log, o.seed);
  log.expect(peak_live_threads() <= nproc(), "at most nproc threads alive");
  std::error_code ec;
  std::filesystem::remove_all(sinks, ec);

  std::uint64_t alloc_total = 0;
  for (auto a : allocs) alloc_total += a;
  const double devices = static_cast<double>(w.traces.size());
  const double total = timer.total_s();
  res.metrics["setup_s"] = {setup_s, "s"};
  res.metrics["devices_per_s"] = {devices / total, "devices/s"};
  res.metrics["decisions_per_s"] = {static_cast<double>(consults) / total,
                                    "decisions/s"};
  res.metrics["peak_heap_mb"] = {heap_mb, "MB"};
  res.metrics["allocs_per_device"] = {
      static_cast<double>(alloc_total) / devices, "count"};
  res.metrics["service_s"] = {life / static_cast<double>(chunks), "sim_s"};
  std::cerr << "perfbench: sim_budget " << timer.passes << " passes, "
            << log.checks() << " checks in " << seconds_since(checks_start)
            << " s\n";
  std::cerr << "perfbench: pass seconds";
  for (double s : timer.pass_s) std::cerr << " " << s;
  std::cerr << "; fastest chunks sum to " << timer.wall_total_s()
            << " s here, " << timer.total_s() << " s on the reference host\n";
  res.correct = log.ok();
  return res;
}

void print_json(const Result& r) {
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": 0, \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  try {
    if (o.self_test) {
      CheckLog log;
      const bool ok = self_test(log);
      std::cerr << "perfbench: self-test " << (ok ? "passed" : "FAILED")
                << " (" << log.checks() << " checks)\n";
      return ok ? 0 : 1;
    }
    const std::string out_dir = ".perfbench_out";
    std::filesystem::create_directories(out_dir);
    Result r;
    if (o.trace) {
      CheckLog log;
      r.correct = run_traced(o.workload, o.seed, o.seconds, out_dir,
                             r.metrics, log, r.attempted) &&
                  log.ok();
    } else if (o.workload == "sim_budget") {
      r = run_sim_budget(o, out_dir);
    } else {
      r = run_fleet(o, o.workload == "fleet_dual" ? make_fleet_dual(o.seed)
                                                  : make_fleet_capman(o.seed));
    }
    std::cerr << "perfbench: resident-set peak " << peak_rss_mb() << " MB\n";
    print_json(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
