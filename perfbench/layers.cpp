// Traced mode: per-layer metrics, timed and counted around calls into each
// layer's public functions from the benchmark's own code.
//
//  * policy: a ForwardingPolicy wraps each policy inside real SimEngine
//    runs of the workload's devices;
//  * workload, device, battery, thermal: the public step functions are
//    replayed on each workload's own traces, in batches of kBatch steps;
//  * core, math: the similarity engine, value iteration and EMD are run on
//    the MDP graphs captured from the CAPMAN scheduler in those runs;
//  * obs, sim, util: whole runs with the sinks on and off, fleets at 1
//    and nproc workers, and the OS threads each recalibration creates.
//
// Spans go to <out_dir>/spans_<workload>.jsonl, the per-layer summary
// (with sample counts) to <out_dir>/layers_<workload>.json.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "battery/pack.h"
#include "bench.h"
#include "core/similarity.h"
#include "core/value_iteration.h"
#include "math/emd.h"
#include "thermal/phone_thermal.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

using namespace capman;

constexpr std::size_t kBatch = 64;            // steps per physics sample
constexpr std::size_t kPhysicsSamples = 1024;  // batches per physics layer
constexpr std::size_t kSolveSamples = 120;     // similarity / VI solves
constexpr std::size_t kEmdSamples = 2000;      // EMD calls

/// Spans recorded at the layer boundaries, kept in memory and written
/// when the run ends.
class SpanLog {
 public:
  std::size_t begin(std::string name, std::size_t parent = kNone) {
    spans_.push_back({std::move(name), now_us(), 0.0, parent});
    return spans_.size() - 1;
  }
  void end(std::size_t id) { spans_[id].end_us = now_us(); }
  void write(const std::string& path) const {
    std::ofstream out{path};
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
          << ", \"parent\": "
          << (s.parent == kNone ? std::string{"null"}
                                : std::to_string(s.parent))
          << "}\n";
    }
  }
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    std::size_t parent;
  };
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// One traced input: a device (fleet) or a paper-suite trace (sim_budget).
struct Input {
  sim::SimConfig config;
  device::PhoneProfile phone;
  workload::Trace trace;
  std::uint64_t seed = 0;
  core::CapmanConfig capman;
  std::vector<sim::PolicyKind> policies;  // what the workload races
};

class Traced {
 public:
  Traced(std::string workload, std::uint64_t seed, std::string out_dir,
         CheckLog& log)
      : workload_(std::move(workload)),
        seed_(seed),
        out_dir_(std::move(out_dir)),
        log_(log) {}

  bool run(MetricMap& metrics, std::uint64_t& attempted);

 private:
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit, double tail_q, const char* tail_name);
  void count(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  void build_inputs();
  void policy_layer();
  void physics_layers();
  void core_layers();
  void obs_layer();
  void sim_layer();

  /// Runs every input x policy through ExperimentRunner; with `probe` the
  /// policies are wrapped. Returns the seconds of each run.
  std::vector<double> device_runs(ForwardingPolicy::Probe* probe,
                                  bool sinks, std::size_t parent,
                                  std::vector<double>* service = nullptr,
                                  std::uint64_t* steps = nullptr);

  std::string workload_;
  std::uint64_t seed_;
  std::string out_dir_;
  CheckLog& log_;
  SpanLog spans_;
  std::size_t root_ = SpanLog::kNone;
  MetricMap metrics_;
  std::map<std::string, std::size_t> samples_;  // sample count per timing
  std::uint64_t attempted_ = 0;

  std::vector<Input> inputs_;
  std::vector<double> trace_gen_ms_;
  std::optional<SimBudgetWorkload> budget_;
  std::optional<FleetWorkload> fleet_;
  ForwardingPolicy::Probe capman_probe_;  // CAPMAN runs of the workload
};

void Traced::timing(const std::string& name,
                    const std::vector<double>& samples,
                    const std::string& unit, double tail_q,
                    const char* tail_name) {
  // The median, plus a tail percentile chosen so that at least ten
  // samples lie beyond it; the sample counts are fixed by design.
  const double beyond =
      std::floor(static_cast<double>(samples.size()) * (1.0 - tail_q) + 1e-9);
  log_.expect(beyond >= 10.0, name + ": at least ten samples beyond the " +
                                  tail_name + " (" +
                                  std::to_string(samples.size()) + ")");
  metrics_[name] = {median(samples), unit};
  metrics_[name + "_" + tail_name] = {quantile(samples, tail_q), unit};
  samples_[name] = samples.size();
}

void Traced::build_inputs() {
  const std::size_t span = spans_.begin("workload.inputs", root_);
  if (workload_ == "sim_budget") {
    budget_ = make_sim_budget(out_dir_ + "/traced_sinks");
    const auto options = budget_->options(false);
    const auto suite = paper_suite();
    // Regenerate the suite until there are enough samples for a p90.
    while (trace_gen_ms_.size() < kSolveSamples) {
      for (const auto& generator : suite) {
        const auto start = Clock::now();
        const auto trace = generator->generate(
            util::Seconds{kSimBudgetHorizonS}, kSimBudgetSeed);
        trace_gen_ms_.push_back(seconds_since(start) * 1e3);
      }
    }
    for (const auto& trace : budget_->traces) {
      inputs_.push_back({options.config, device::nexus_profile(), trace,
                         kSimBudgetSeed, options.capman,
                         sim::all_policy_kinds()});
    }
  } else {
    fleet_ = workload_ == "fleet_dual" ? make_fleet_dual(seed_)
                                       : make_fleet_capman(seed_);
    // Trace generation for every device of the population; the traced
    // device runs use the first four chunks.
    for (std::size_t chunk = 0; chunk < fleet_->chunks; ++chunk) {
      const auto cfg = fleet_->chunk_config(chunk);
      for (std::size_t i = 0; i < fleet_->devices_per_chunk; ++i) {
        const auto start = Clock::now();
        auto d = resolve_fleet_device(cfg, i);
        trace_gen_ms_.push_back(seconds_since(start) * 1e3);
        if (chunk < 4) {
          inputs_.push_back({d.config, d.phone, std::move(d.trace),
                             d.spec.seed, cfg.capman, cfg.policies});
        }
      }
    }
  }
  spans_.end(span);
  timing("workload.trace_gen_ms", trace_gen_ms_, "ms", 0.9, "p90");
}

std::vector<double> Traced::device_runs(ForwardingPolicy::Probe* probe,
                                        bool sinks, std::size_t parent,
                                        std::vector<double>* service,
                                        std::uint64_t* steps) {
  std::vector<double> seconds;
  for (const auto& in : inputs_) {
    sim::SimConfig config = in.config;
    if (sinks && budget_) config.telemetry = budget_->options(true).config.telemetry;
    const sim::ExperimentRunner runner{
        device::PhoneModel{in.phone},
        {config, in.seed, std::nullopt, in.capman}};
    for (const auto kind : in.policies) {
      if (sinks && budget_) clear_dir(budget_->sink_dir);
      const std::size_t span = spans_.begin(
          std::string{"sim.device_run."} + sim::to_string(kind), parent);
      const auto start = Clock::now();
      sim::SimResult r;
      std::uint64_t forwarded = 0;
      if (probe != nullptr) {
        ForwardingPolicy policy{runner.build_policy(kind), probe};
        r = runner.run(in.trace, policy);
        forwarded = policy.decisions();
      } else {
        r = runner.run(in.trace, kind);
      }
      seconds.push_back(seconds_since(start));
      spans_.end(span);
      ++attempted_;
      if (probe != nullptr) {
        log_.expect(decisions_match(forwarded,
                                    r.metrics.counter_or("engine/consults")),
                    "forwarded decisions == engine/consults");
      }
      if (service != nullptr) service->push_back(r.service_time_s);
      if (steps != nullptr) *steps += r.metrics.counter_or("engine/steps");
    }
  }
  return seconds;
}

void Traced::policy_layer() {
  // Alternate plain and wrapped rounds: the policy layer's samples come
  // from the first wrapped round, and the difference between the fastest
  // plain and wrapped runs is the traced run's own overhead.
  ForwardingPolicy::Probe probe;
  probe.timing = true;
  probe.capture_graphs = true;
  probe.max_graphs = 100000;
  std::vector<double> plain_best;
  std::vector<double> wrapped_best;
  std::vector<double> plain_service;
  std::vector<double> wrapped_service;
  std::uint64_t steps = 0;
  double first_wrapped_s = 0.0;
  for (int round = 0; round < 2; ++round) {
    const std::size_t span = spans_.begin("policy.round", root_);
    ForwardingPolicy::Probe scratch;
    scratch.timing = true;
    const auto plain = device_runs(nullptr, true, span,
                                   round == 0 ? &plain_service : nullptr,
                                   round == 0 ? &steps : nullptr);
    const auto wrapped = device_runs(round == 0 ? &probe : &scratch, true,
                                     span,
                                     round == 0 ? &wrapped_service : nullptr);
    spans_.end(span);
    if (round == 0) {
      for (double sec : wrapped) first_wrapped_s += sec;
    } else {
      // More samples for the per-call timings from the second round.
      probe.on_event_us.insert(probe.on_event_us.end(),
                               scratch.on_event_us.begin(),
                               scratch.on_event_us.end());
      probe.recalibrate_ms.insert(probe.recalibrate_ms.end(),
                                  scratch.recalibrate_ms.begin(),
                                  scratch.recalibrate_ms.end());
    }
    if (plain_best.empty()) {
      plain_best = plain;
      wrapped_best = wrapped;
    }
    for (std::size_t i = 0; i < plain.size(); ++i) {
      plain_best[i] = std::min(plain_best[i], plain[i]);
      wrapped_best[i] = std::min(wrapped_best[i], wrapped[i]);
    }
  }
  log_.expect(plain_service == wrapped_service,
              "the forwarding policy changes no result");
  double plain_total = 0.0;
  double wrapped_total = 0.0;
  for (std::size_t i = 0; i < plain_best.size(); ++i) {
    plain_total += plain_best[i];
    wrapped_total += wrapped_best[i];
  }
  count("trace.overhead_pct", 100.0 * (wrapped_total / plain_total - 1.0),
        "%");
  timing("policy.on_event_us", probe.on_event_us, "us", 0.99, "p99");
  count("policy.share_of_run", probe.policy_seconds / first_wrapped_s, "ratio");

  const double devices = static_cast<double>(inputs_.size());
  const bool races_capman = probe.recalibrations > 0;
  count("core.recalibrations_per_device",
        static_cast<double>(probe.recalibrations) / devices, "count");
  count("sim.steps_per_device",
        static_cast<double>(steps) / devices, "count");
  if (races_capman) {
    capman_probe_ = std::move(probe);
  } else {
    // A workload that races no CAPMAN (fleet_dual): the core and math
    // layers are driven with graphs from CAPMAN runs on its own devices.
    const std::size_t span = spans_.begin("policy.capman_probe", root_);
    capman_probe_ = ForwardingPolicy::Probe{};
    capman_probe_.timing = true;
    capman_probe_.capture_graphs = true;
    capman_probe_.max_graphs = 100000;
    auto saved = inputs_;
    for (auto& in : inputs_) in.policies = {sim::PolicyKind::kCapman};
    (void)device_runs(&capman_probe_, false, span);
    inputs_ = std::move(saved);
    spans_.end(span);
  }
}

void Traced::physics_layers() {
  // Each input's own trace, replayed at its own dt through the public
  // step functions; every layer is timed in batches of kBatch steps.
  std::vector<double> cursor_ns;
  std::vector<double> power_ns;
  std::vector<double> pack_ns;
  std::vector<double> thermal_ns;
  std::uint64_t pack_allocs = 0;
  std::uint64_t thermal_allocs = 0;
  std::uint64_t steps = 0;
  const std::size_t batches =
      (kPhysicsSamples + inputs_.size() - 1) / inputs_.size();
  const std::size_t n = batches * kBatch;
  for (const auto& in : inputs_) {
    const std::size_t span = spans_.begin("physics.input", root_);
    const double dt = in.config.dt.value();
    std::vector<device::DeviceDemand> demand(n);
    {
      workload::TraceCursor cursor{in.trace};
      const std::size_t s = spans_.begin("workload.cursor", span);
      for (std::size_t b = 0; b < batches; ++b) {
        const auto start = Clock::now();
        for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
          const double t = static_cast<double>(i) * dt;
          cursor.advance(t);
          demand[i] = cursor.demand_at(t);
        }
        cursor_ns.push_back(seconds_since(start) * 1e9 / kBatch);
      }
      spans_.end(s);
    }
    std::vector<device::ComponentPower> power(n);
    {
      const device::PhoneModel phone{in.phone};
      const std::size_t s = spans_.begin("device.power", span);
      for (std::size_t b = 0; b < batches; ++b) {
        const auto start = Clock::now();
        for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
          power[i] = phone.power(demand[i]);
        }
        power_ns.push_back(seconds_since(start) * 1e9 / kBatch);
      }
      spans_.end(s);
    }
    std::vector<util::Watts> heat(n);
    {
      battery::DualBatteryPack pack{in.config.pack_config};
      const std::size_t s = spans_.begin("battery.pack_step", span);
      for (std::size_t b = 0; b < batches; ++b) {
        if (pack.exhausted()) pack.recharge();
        const std::uint64_t a0 = allocations();
        const auto start = Clock::now();
        for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
          heat[i] = pack.step(power[i].total(), in.config.dt,
                              util::Seconds{static_cast<double>(i) * dt})
                        .heat;
        }
        pack_ns.push_back(seconds_since(start) * 1e9 / kBatch);
        pack_allocs += allocations() - a0;
      }
      spans_.end(s);
    }
    {
      thermal::PhoneThermal thermal{in.config.thermal_config,
                                    in.config.tec_params};
      const std::size_t s = spans_.begin("thermal.step", span);
      for (std::size_t b = 0; b < batches; ++b) {
        const std::uint64_t a0 = allocations();
        const auto start = Clock::now();
        for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
          (void)thermal.step(power[i].cpu, heat[i],
                             power[i].screen + power[i].wifi, in.config.dt);
        }
        thermal_ns.push_back(seconds_since(start) * 1e9 / kBatch);
        thermal_allocs += allocations() - a0;
      }
      spans_.end(s);
    }
    steps += n;
    spans_.end(span);
  }
  timing("workload.cursor_ns_per_step", cursor_ns, "ns", 0.99, "p99");
  timing("device.power_ns_per_call", power_ns, "ns", 0.99, "p99");
  timing("battery.pack_step_ns", pack_ns, "ns", 0.99, "p99");
  timing("thermal.step_ns", thermal_ns, "ns", 0.99, "p99");
  count("battery.allocs_per_step",
        static_cast<double>(pack_allocs) / static_cast<double>(steps),
        "count");
  count("thermal.allocs_per_step",
        static_cast<double>(thermal_allocs) / static_cast<double>(steps),
        "count");
}

void Traced::core_layers() {
  const auto& probe = capman_probe_;
  log_.expect(!probe.graphs.empty(), "captured CAPMAN graphs");
  if (probe.graphs.empty()) return;
  timing("core.recalibrate_ms", probe.recalibrate_ms, "ms", 0.9, "p90");
  count("core.action_pairs_per_solve",
        static_cast<double>(probe.action_pairs) /
            static_cast<double>(probe.recalibrations),
        "count");
  count("core.emd_cache_hit_ratio",
        static_cast<double>(probe.action_pairs_cached) /
            static_cast<double>(probe.action_pairs),
        "ratio");

  // The OS threads one recalibration starts at the program's default
  // similarity thread count, from CAPMAN on the first input.
  {
    Input in = inputs_.front();
    default_similarity_threads(in.capman);
    const sim::ExperimentRunner runner{
        device::PhoneModel{in.phone},
        {in.config, in.seed, std::nullopt, in.capman}};
    ForwardingPolicy::Probe threads;
    ForwardingPolicy policy{runner.build_policy(sim::PolicyKind::kCapman),
                            &threads};
    const std::size_t span = spans_.begin("util.default_threads", root_);
    (void)runner.run(in.trace, policy);
    spans_.end(span);
    ++attempted_;
    count("util.threads_created_per_recalibration",
          static_cast<double>(threads.threads_in_recalibrations) /
              static_cast<double>(std::max<std::uint64_t>(
                  threads.recalibrations, 1)),
          "count");
  }

  // kSolveSamples graphs spread evenly over the captured sequence.
  std::vector<const core::MdpGraph*> graphs;
  for (std::size_t i = 0; i < kSolveSamples; ++i) {
    graphs.push_back(&probe.graphs[i * probe.graphs.size() / kSolveSamples]);
  }
  const auto& capman = inputs_.front().capman;
  // The workload's own similarity settings (one thread in every
  // workload).
  const auto sc = capman.similarity_config();
  const auto vc = capman.value_iteration_config();
  std::vector<double> sim_ms;
  std::vector<double> vi_ms;
  std::vector<core::SimilarityResult> solved;
  for (const auto* g : graphs) {
    const std::size_t span = spans_.begin("core.similarity", root_);
    const auto start = Clock::now();
    solved.push_back(core::compute_structural_similarity(*g, sc));
    sim_ms.push_back(seconds_since(start) * 1e3);
    spans_.end(span);
    const std::size_t vspan = spans_.begin("core.value_iteration", root_);
    const auto vstart = Clock::now();
    (void)core::solve_values(*g, vc);
    vi_ms.push_back(seconds_since(vstart) * 1e3);
    spans_.end(vspan);
  }
  timing("core.similarity_ms", sim_ms, "ms", 0.9, "p90");
  timing("core.value_iteration_ms", vi_ms, "ms", 0.9, "p90");

  // One similarity thread against nproc, on the same graphs, alternating.
  std::vector<double> one;
  std::vector<double> many;
  for (const auto* g : graphs) {
    for (const std::size_t threads : {std::size_t{1}, nproc()}) {
      auto config = sc;
      config.num_threads = threads;
      const std::size_t span = spans_.begin(
          "core.similarity_threads_" + std::to_string(threads), root_);
      const auto start = Clock::now();
      (void)core::compute_structural_similarity(*g, config);
      (threads == 1 ? one : many).push_back(seconds_since(start));
      spans_.end(span);
    }
  }
  count("core.similarity_speedup_nproc", median(one) / median(many), "x");

  // EMD between action pairs of the captured graphs, under the graph's
  // solved state distance, as Algorithm 1 calls it.
  util::Rng rng{seed_};
  std::vector<double> emd_us;
  std::uint64_t emd_allocs = 0;
  const std::size_t span = spans_.begin("math.emd", root_);
  while (emd_us.size() < kEmdSamples) {
    const std::size_t gi = rng.uniform_index(graphs.size());
    const auto& g = *graphs[gi];
    if (g.action_count() < 2) continue;
    const auto& a = g.action(rng.uniform_index(g.action_count()));
    const auto& b = g.action(rng.uniform_index(g.action_count()));
    math::Distribution p;
    math::Distribution q;
    for (const auto& t : a.transitions) p.mass.push_back(t.probability);
    for (const auto& t : b.transitions) q.mass.push_back(t.probability);
    const auto& sim = solved[gi];
    const auto ground = [&](std::size_t i, std::size_t j) {
      return sim.state_distance(a.transitions[i].to, b.transitions[j].to);
    };
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    (void)math::earth_movers_distance(p, q, ground);
    emd_us.push_back(seconds_since(start) * 1e6);
    emd_allocs += allocations() - a0;
  }
  spans_.end(span);
  timing("math.emd_us", emd_us, "us", 0.99, "p99");
  count("math.allocs_per_emd",
        static_cast<double>(emd_allocs) / static_cast<double>(emd_us.size()),
        "count");
}

void Traced::obs_layer() {
  // Whole runs with the program's sinks on against off, alternating. The
  // fleets force sinks off, so there the figure should read about zero.
  double on = 0.0;
  double off = 0.0;
  std::vector<double> best_on(budget_ ? 0 : 4);
  std::vector<double> best_off(budget_ ? 0 : 4);
  if (budget_) {
    for (int round = 0; round < 2; ++round) {
      const std::size_t span = spans_.begin("obs.round", root_);
      auto a = device_runs(nullptr, true, span);
      auto b = device_runs(nullptr, false, span);
      spans_.end(span);
      if (best_on.empty()) {
        best_on = a;
        best_off = b;
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        best_on[i] = std::min(best_on[i], a[i]);
        best_off[i] = std::min(best_off[i], b[i]);
      }
    }
  } else {
    for (int round = 0; round < 5; ++round) {
      for (std::size_t chunk = 0; chunk < 4; ++chunk) {
        auto plain = fleet_->chunk_config(chunk);
        auto with_sinks = plain;
        with_sinks.base.telemetry.decision_trace_path =
            out_dir_ + "/fleet_decisions.jsonl";
        with_sinks.base.telemetry.sampler.enabled = true;
        const std::size_t span = spans_.begin("obs.round", root_);
        auto start = Clock::now();
        (void)sim::FleetRunner{with_sinks}.run();
        const double a = seconds_since(start);
        start = Clock::now();
        (void)sim::FleetRunner{plain}.run();
        const double b = seconds_since(start);
        spans_.end(span);
        best_on[chunk] = round == 0 ? a : std::min(best_on[chunk], a);
        best_off[chunk] = round == 0 ? b : std::min(best_off[chunk], b);
        attempted_ += 2 * fleet_->devices_per_chunk;
      }
    }
  }
  for (std::size_t i = 0; i < best_on.size(); ++i) {
    on += best_on[i];
    off += best_off[i];
  }
  count("obs.telemetry_overhead_pct", 100.0 * (on / off - 1.0), "%");
}

void Traced::sim_layer() {
  // Devices/s at nproc workers / (nproc x the 1-worker rate), on the
  // workload's fleet population (fleet_capman's for sim_budget).
  const FleetWorkload w = fleet_ ? *fleet_ : make_fleet_capman(seed_);
  auto config = w.chunk_config(0);
  config.device_count = 4 * nproc();
  double t1 = 1e300;
  double tn = 1e300;
  for (int round = 0; round < 2; ++round) {
    for (const std::size_t threads : {std::size_t{1}, nproc()}) {
      config.threads = threads;
      const std::size_t span = spans_.begin(
          "sim.fleet_workers_" + std::to_string(threads), root_);
      const auto start = Clock::now();
      (void)sim::FleetRunner{config}.run();
      const double s = seconds_since(start);
      spans_.end(span);
      (threads == 1 ? t1 : tn) = std::min(threads == 1 ? t1 : tn, s);
      attempted_ += config.device_count;
    }
  }
  count("sim.fleet_parallel_efficiency",
        t1 / tn / static_cast<double>(nproc()), "ratio");
}

bool Traced::run(MetricMap& metrics, std::uint64_t& attempted) {
  root_ = spans_.begin("traced." + workload_);
  build_inputs();
  policy_layer();
  physics_layers();
  core_layers();
  obs_layer();
  sim_layer();
  log_.expect(peak_live_threads() <= nproc(), "at most nproc threads alive");
  spans_.end(root_);
  if (budget_) {
    std::error_code ec;
    std::filesystem::remove_all(budget_->sink_dir, ec);
  }
  std::error_code ec;
  std::filesystem::remove(out_dir_ + "/fleet_decisions.jsonl", ec);

  spans_.write(out_dir_ + "/spans_" + workload_ + ".jsonl");
  std::ofstream summary{out_dir_ + "/layers_" + workload_ + ".json"};
  summary << "{\"workload\": \"" << workload_ << "\", \"seed\": " << seed_
          << ", \"nproc\": " << nproc() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    summary << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << m.value << ", \"unit\": \"" << m.unit << "\"";
    if (const auto it = samples_.find(name); it != samples_.end()) {
      summary << ", \"samples\": " << it->second;
    }
    summary << "}";
    first = false;
  }
  summary << "}}\n";
  metrics = metrics_;
  attempted = attempted_;
  return true;
}

}  // namespace

bool run_traced(const std::string& workload, std::uint64_t seed,
                double /*seconds*/, const std::string& out_dir,
                MetricMap& metrics, CheckLog& log, std::uint64_t& attempted) {
  Traced traced{workload, seed, out_dir, log};
  return traced.run(metrics, attempted);
}

}  // namespace perfbench
