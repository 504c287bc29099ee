// The benchmark's workloads and the forwarding policy wrapper.
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "policy/capman_policy.h"
#include "workload/generators.h"

namespace perfbench {

using namespace capman;

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double reference_kernel_s() {
  // A dependent chain of multiply-adds and square roots: no memory
  // traffic, no branches to mispredict, nothing the capman libraries run.
  static volatile double sink = 0.0;
  const auto start = Clock::now();
  double a = 1.0;
  for (int i = 0; i < 200000; ++i) a = a * 1.0000001 + std::sqrt(a) * 1e-7;
  sink = a;
  return seconds_since(start);
}

namespace {

std::uint64_t mix(std::uint64_t z) {  // splitmix64 finaliser
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

device::PhoneProfile profile_for(sim::FleetPhone phone) {
  switch (phone) {
    case sim::FleetPhone::kNexus: return device::nexus_profile();
    case sim::FleetPhone::kHonor: return device::honor_profile();
    case sim::FleetPhone::kLenovo: return device::lenovo_profile();
  }
  return device::nexus_profile();
}

std::unique_ptr<workload::WorkloadGenerator> generator_for(
    const sim::PopulationSpec::WorkloadChoice& choice) {
  switch (choice.workload) {
    case sim::FleetWorkload::kGeekbench: return workload::make_geekbench();
    case sim::FleetWorkload::kPcmark: return workload::make_pcmark();
    case sim::FleetWorkload::kVideo: return workload::make_video();
    case sim::FleetWorkload::kLocalVideo: return workload::make_local_video();
    case sim::FleetWorkload::kIdleScreenOn:
      return workload::make_idle_screen_on();
    case sim::FleetWorkload::kEtaStatic:
      return workload::make_eta_static(choice.eta);
    case sim::FleetWorkload::kScreenToggle:
      return workload::make_screen_toggle(choice.toggle_period);
  }
  return workload::make_video();
}

}  // namespace

namespace {

/// Four equal slots reproducing a weighted choice list whose weights are
/// whole numbers summing to four (every categorical list of the preset).
template <class Choice>
std::vector<Choice> four_slots(const std::vector<Choice>& choices) {
  std::vector<Choice> slots;
  for (const auto& c : choices) {
    for (int i = 0; i < static_cast<int>(c.weight); ++i) slots.push_back(c);
  }
  if (slots.size() != 4) {
    throw std::logic_error("population weights must be whole and sum to 4");
  }
  return slots;
}

}  // namespace

sim::FleetConfig FleetWorkload::chunk_config(std::size_t chunk) const {
  // The capman_fleet preset (examples/capman_fleet.cpp): sub-scale cells
  // and a coarse step, about 20 simulated minutes per discharge.
  sim::FleetConfig config;
  config.device_count = devices_per_chunk;
  config.threads = 1;
  config.seed = mix(seed ^ mix(chunk + 1));
  config.policies = policies;
  config.base.dt = util::Seconds{0.25};
  config.base.max_duration = util::hours(2.0);
  config.base.record_series = false;
  config.population.big_capacity_mah_lo = 500.0;
  config.population.big_capacity_mah_hi = 800.0;
  config.population.little_capacity_mah_lo = 200.0;
  config.population.little_capacity_mah_hi = 350.0;
  config.population.trace_horizon = util::Seconds{120.0};
  pin_similarity_threads(config.capman);

  // Stratified sampling of the preset's categorical choices. A CAPMAN
  // device on an NMC big cell lives three times as long as one on NCA,
  // so drawing these at random leaves the population's mean life (and
  // its cost) swinging by 10% between seeds at this population size.
  // Each chunk fixes one of four equal-weight slots per factor; every
  // block of 16 chunks holds each slot of each factor four times, which
  // is exactly the preset's mix. Capacities, ambient temperatures and
  // traces stay random per device.
  auto& pop = config.population;
  const std::size_t i = chunk % 4;
  const std::size_t j = (chunk / 4) % 4;
  const std::size_t r = chunk / 16;
  pop.workloads = {four_slots(pop.workloads)[i]};
  pop.phones = {four_slots(pop.phones)[j]};
  pop.big_chemistries = {four_slots(pop.big_chemistries)[(i + j + r) % 4]};
  pop.little_chemistries = {
      four_slots(pop.little_chemistries)[(i + 2 * j + r) % 4]};
  return config;
}

FleetWorkload make_fleet_dual(std::uint64_t seed) {
  FleetWorkload w;
  w.policies = {sim::PolicyKind::kDual, sim::PolicyKind::kHeuristic};
  w.chunks = 128;
  w.devices_per_chunk = 6;
  w.warmup_chunks = 16;
  w.seed = seed;
  return w;
}

FleetWorkload make_fleet_capman(std::uint64_t seed) {
  FleetWorkload w;
  w.policies = {sim::PolicyKind::kCapman};
  w.chunks = 96;
  w.devices_per_chunk = 4;
  w.warmup_chunks = 2;
  w.seed = seed;
  return w;
}

FleetDevice resolve_fleet_device(const sim::FleetConfig& fleet,
                                 std::uint64_t device_id) {
  // Mirrors the per-device derivation of FleetRunner::run; the fleet
  // checks compare the two through exact aggregate folds.
  FleetDevice d;
  d.spec = sim::FleetRunner::sample_device(fleet.population, fleet.seed,
                                           device_id);
  d.config = fleet.base;
  d.config.record_series = false;
  d.config.telemetry = obs::TelemetryConfig{};
  d.config.pack_config.big_chemistry = d.spec.big_chemistry;
  d.config.pack_config.big_capacity_mah = d.spec.big_capacity_mah;
  d.config.pack_config.little_chemistry = d.spec.little_chemistry;
  d.config.pack_config.little_capacity_mah = d.spec.little_capacity_mah;
  d.config.practice_capacity_mah =
      d.spec.big_capacity_mah + d.spec.little_capacity_mah;
  d.config.thermal_config.ambient = d.spec.ambient;
  d.config.faults = sim::FaultPlanConfig{};
  d.phone = profile_for(d.spec.phone);
  d.trace = generator_for(d.spec.workload)
                ->generate(fleet.population.trace_horizon, d.spec.seed);
  return d;
}

std::vector<std::unique_ptr<workload::WorkloadGenerator>> paper_suite() {
  std::vector<std::unique_ptr<workload::WorkloadGenerator>> suite;
  suite.push_back(workload::make_geekbench());
  suite.push_back(workload::make_pcmark());
  suite.push_back(workload::make_video());
  return suite;
}

SimBudgetWorkload make_sim_budget(const std::string& sink_dir) {
  SimBudgetWorkload w;
  w.sink_dir = sink_dir;
  for (const auto& generator : paper_suite()) {
    w.traces.push_back(generator->generate(
        util::Seconds{kSimBudgetHorizonS}, kSimBudgetSeed));
  }
  return w;
}

sim::RunnerOptions SimBudgetWorkload::options(bool sinks) const {
  // capman_sim --budget-mw 3000 with its sinks on. The cells are half
  // capman_sim's default capacity, so that one five-way comparison of the
  // suite takes about three seconds instead of eight; at a quarter, the
  // higher C-rate browns several policies out within seconds. Similarity
  // runs on one thread, as in the fleets: at one thread per core, two
  // runs of the same inputs were 11% apart (one thread: 0.4%). What the
  // default thread count costs is measured by the traced run
  // (core.similarity_speedup_nproc, util.threads_created_per_recalibration).
  sim::RunnerOptions options;
  options.seed = kSimBudgetSeed;
  options.config.record_series = false;
  options.config.pack_config.big_capacity_mah = 1700.0 / 2.0;
  options.config.pack_config.little_capacity_mah = 800.0 / 2.0;
  options.config.practice_capacity_mah = 2500.0 / 2.0;
  options.config.budget.enabled = true;
  options.config.budget.base_budget_mw = util::Milliwatts{3000.0};
  options.config.budget.cap_method = core::CapMethod::kRelax;
  options.capman.learn_budget = true;
  pin_similarity_threads(options.capman);
  if (sinks) {
    auto& t = options.config.telemetry;
    t.decision_trace_path = sink_dir + "/decisions.jsonl";
    t.recorder.enabled = true;
    t.recorder.dump_path = sink_dir + "/flight.jsonl";
    t.health.enabled = true;
    t.health.alerts_path = sink_dir + "/alerts.jsonl";
    t.sampler.enabled = true;
    t.sampler.period_s = 2.0;
    t.sampler.csv_path = sink_dir + "/samples.csv";
  }
  return options;
}

void clear_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
}

std::vector<core::MdpGraph> capman_probe_graphs(const FleetWorkload& w,
                                                std::size_t devices,
                                                std::size_t max_graphs) {
  std::vector<core::MdpGraph> graphs;
  const auto cfg = w.chunk_config(0);
  for (std::size_t i = 0; i < devices && i < w.devices_per_chunk; ++i) {
    const auto d = resolve_fleet_device(cfg, i);
    const sim::ExperimentRunner runner{
        device::PhoneModel{d.phone},
        {d.config, d.spec.seed, std::nullopt, cfg.capman}};
    ForwardingPolicy::Probe probe;
    probe.capture_graphs = true;
    probe.max_graphs = max_graphs;
    ForwardingPolicy policy{runner.build_policy(sim::PolicyKind::kCapman),
                            &probe};
    (void)runner.run(d.trace, policy);
    for (auto& g : probe.graphs) graphs.push_back(std::move(g));
  }
  return graphs;
}

std::vector<core::MdpGraph> largest_graphs(std::vector<core::MdpGraph> graphs,
                                           std::size_t keep) {
  std::stable_sort(graphs.begin(), graphs.end(),
                   [](const auto& a, const auto& b) {
                     return a.action_count() > b.action_count();
                   });
  if (graphs.size() > keep) graphs.resize(keep);
  return graphs;
}

// ---- ForwardingPolicy ---------------------------------------------------

ForwardingPolicy::ForwardingPolicy(
    std::unique_ptr<policy::BatteryPolicy> inner, Probe* probe)
    : inner_(std::move(inner)), probe_(probe) {
  if (const auto* capman =
          dynamic_cast<const policy::CapmanPolicy*>(inner_.get())) {
    scheduler_ = &capman->controller().scheduler();
  }
}

std::string ForwardingPolicy::name() const { return inner_->name(); }

battery::BatterySelection ForwardingPolicy::on_event(
    const policy::PolicyContext& context, const workload::Action& event) {
  ++decisions_;
  if (probe_ == nullptr || !probe_->timing) {
    return inner_->on_event(context, event);
  }
  const auto start = Clock::now();
  const auto choice = inner_->on_event(context, event);
  const double s = seconds_since(start);
  probe_->on_event_us.push_back(s * 1e6);
  probe_->policy_seconds += s;
  return choice;
}

void ForwardingPolicy::record_step(util::Joules delivered, util::Joules losses,
                                   bool demand_met) {
  inner_->record_step(delivered, losses, demand_met);
}

util::Watts ForwardingPolicy::maintenance(util::Seconds now) {
  // Only CAPMAN does work here (recalibration); timing the baselines'
  // empty upkeep on every step would cost more than it measures.
  if (probe_ == nullptr || scheduler_ == nullptr) {
    return inner_->maintenance(now);
  }
  const std::size_t recals_before = scheduler_->recalibration_count();
  const std::uint64_t threads_before = threads_created();
  const auto start = probe_->timing ? Clock::now() : Clock::time_point{};
  const util::Watts power = inner_->maintenance(now);
  if (probe_->timing) probe_->policy_seconds += seconds_since(start);
  if (scheduler_->recalibration_count() != recals_before) {
    if (probe_->timing) {
      probe_->recalibrate_ms.push_back(seconds_since(start) * 1e3);
    }
    ++probe_->recalibrations;
    probe_->threads_in_recalibrations += threads_created() - threads_before;
    const auto& stats = scheduler_->similarity().stats;
    probe_->action_pairs += stats.action_pairs_total;
    probe_->action_pairs_cached += stats.action_pairs_cached;
    if (probe_->capture_graphs && probe_->graphs.size() < probe_->max_graphs) {
      probe_->graphs.push_back(scheduler_->graph());
    }
  }
  return power;
}

bool ForwardingPolicy::wants_single_pack() const {
  return inner_->wants_single_pack();
}
core::DegradationStats ForwardingPolicy::degradation() const {
  return inner_->degradation();
}
core::BudgetLevel ForwardingPolicy::preferred_budget_level() const {
  return inner_->preferred_budget_level();
}
std::optional<obs::DecisionDetail> ForwardingPolicy::last_decision_detail()
    const {
  return inner_->last_decision_detail();
}
void ForwardingPolicy::bind_metrics(obs::MetricsRegistry* registry,
                                    bool publish_timings) {
  inner_->bind_metrics(registry, publish_timings);
}
void ForwardingPolicy::publish_metrics(obs::MetricsRegistry& registry) const {
  inner_->publish_metrics(registry);
}

}  // namespace perfbench
