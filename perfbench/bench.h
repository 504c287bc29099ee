// Shared declarations of the end-to-end benchmark (see README.md).
//
// The benchmark drives the capman libraries only through their public
// headers. Everything it measures is timed or counted from the outside:
// wall clock around calls, a replaced global operator new, and a wrapper
// around pthread_create (counting.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mdp_graph.h"
#include "core/scheduler.h"
#include "policy/policy.h"
#include "sim/experiment.h"
#include "sim/fleet.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- counting.cpp -------------------------------------------------------

/// Global operator new calls (every variant) since process start, by the
/// calling thread and by every thread that has ended.
std::uint64_t allocations();
/// Start counting heap bytes from zero: the usable sizes of the blocks
/// operator new returns, less those operator delete frees.
void start_heap_peak();
/// Stop counting; returns the most bytes that were live at once. Blocks
/// live at the start are not counted, and freeing one in between lowers
/// the count: measure work that frees none of them.
std::uint64_t stop_heap_peak();
/// OS threads created through pthread_create since process start.
std::uint64_t threads_created();
/// Highest number of threads alive at once, the main thread included.
std::uint64_t peak_live_threads();
/// Time of static initialisation: the closest the process gets to its
/// own start without asking the kernel.
Clock::time_point process_start();

// ---- workloads.cpp ------------------------------------------------------

/// Number of online CPUs (at least 1).
std::size_t nproc();

/// Pin the similarity engine to one thread. Written against the field
/// only if it exists, so the benchmark keeps compiling, and runs
/// single-threaded similarity as before, if the knob is removed.
template <class Config>
void pin_similarity_threads(Config& config) {
  if constexpr (requires { config.similarity_threads; }) {
    config.similarity_threads = 1;
  }
}

/// Restore the program's default similarity thread count (one per core).
template <class Config>
void default_similarity_threads(Config& config) {
  if constexpr (requires { config.similarity_threads; }) {
    config.similarity_threads = Config{}.similarity_threads;
  }
}

/// A fleet workload: the capman_fleet preset population, split into
/// chunks of devices. Chunk k is a whole FleetRunner fleet whose seed is
/// derived from (seed, k), so chunks hold distinct devices.
struct FleetWorkload {
  std::vector<capman::sim::PolicyKind> policies;
  std::size_t chunks = 0;  // a multiple of 16 (see chunk_config)
  std::size_t devices_per_chunk = 0;
  std::size_t warmup_chunks = 0;  // run untimed at the end of set-up
  std::uint64_t seed = 0;

  [[nodiscard]] std::size_t device_count() const {
    return chunks * devices_per_chunk;
  }
  /// The FleetConfig of chunk `chunk` (threads = 1 unless overridden).
  [[nodiscard]] capman::sim::FleetConfig chunk_config(std::size_t chunk) const;
};

FleetWorkload make_fleet_dual(std::uint64_t seed);
FleetWorkload make_fleet_capman(std::uint64_t seed);

/// The sim_budget workload: capman_sim's five-way comparison on the paper
/// suite with the power-budget arbiter on and every telemetry sink on.
struct SimBudgetWorkload {
  std::string sink_dir;  // telemetry files land here
  std::vector<capman::workload::Trace> traces;  // Geekbench, PCMark, Video
  [[nodiscard]] capman::sim::RunnerOptions options(bool sinks) const;
};

/// sim_budget replays the suite at capman_sim's default seed whatever
/// --seed says: one suite's CAPMAN cost swings by 13.5% from seed to seed,
/// so a seeded suite would bury every speed change (README.md).
constexpr std::uint64_t kSimBudgetSeed = 42;
SimBudgetWorkload make_sim_budget(const std::string& sink_dir);
/// The three paper-suite generators, in trace order.
std::vector<std::unique_ptr<capman::workload::WorkloadGenerator>>
paper_suite();
constexpr double kSimBudgetHorizonS = 600.0;

/// The SimConfig and phone one fleet device runs with: the same
/// derivation FleetRunner::run applies to a sampled DeviceSpec.
struct FleetDevice {
  capman::sim::DeviceSpec spec;
  capman::sim::SimConfig config;
  capman::device::PhoneProfile phone;
  capman::workload::Trace trace;
};
FleetDevice resolve_fleet_device(const capman::sim::FleetConfig& fleet,
                                 std::uint64_t device_id);

/// Removes and recreates `dir`.
void clear_dir(const std::string& dir);

/// A fixed, latency-bound floating-point loop owned by the benchmark
/// (workloads.cpp). Returns its wall time.
double reference_kernel_s();
/// The fastest time of reference_kernel_s() on the host of README.md's
/// reference figures: the unit in which timed work is reported.
constexpr double kReferenceKernelS = 1.723e-3;

/// Repeats a fixed list of operations ("chunks") in whole passes, at
/// least `min_passes` of them, and then as long as one more pass (as long
/// as the slowest so far) still ends within `seconds`. Each chunk runs
/// right after the reference kernel; its time is taken relative to the
/// median of the last five kernel times, and the chunk keeps its fastest
/// relative time over the passes. Host speed drifts by tens of percent
/// over seconds and whole runs, and the kernel slows with it; the
/// fastest relative time holds within a few percent (README.md,
/// "Statistics").
struct PassTimer {
  std::vector<double> best_rel;  // per chunk, in reference-kernel units
  std::vector<double> best_s;    // per chunk, fastest wall time
  std::vector<double> pass_s;    // each whole pass, for the stderr summary
  std::size_t passes = 0;

  template <class Body>
  void run(std::size_t chunks, double seconds, std::size_t min_passes,
           Body&& body) {
    best_rel.assign(chunks, 1e300);
    best_s.assign(chunks, 1e300);
    std::vector<double> recent;  // the last five kernel times
    double elapsed = 0.0;
    double slowest = 0.0;
    while (passes < min_passes || elapsed + slowest <= seconds) {
      double pass = 0.0;
      for (std::size_t k = 0; k < chunks; ++k) {
        if (recent.size() == 5) recent.erase(recent.begin());
        recent.push_back(reference_kernel_s());
        const double s = body(k);
        best_rel[k] = std::min(best_rel[k], s / median_of(recent));
        best_s[k] = std::min(best_s[k], s);
        pass += s;
      }
      pass_s.push_back(pass);
      elapsed += pass;
      slowest = std::max(slowest, pass);
      ++passes;
    }
  }
  /// The summed fastest chunk times, in seconds of the reference host.
  [[nodiscard]] double total_s() const {
    double sum = 0.0;
    for (double r : best_rel) sum += r;
    return sum * kReferenceKernelS;
  }
  /// The summed fastest chunk times, in seconds of this host.
  [[nodiscard]] double wall_total_s() const {
    double sum = 0.0;
    for (double s : best_s) sum += s;
    return sum;
  }

 private:
  static double median_of(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  }
};

/// Runs `body(i)` for i in [0, n) on the calling thread plus nproc - 1
/// workers, so the load never exceeds nproc threads.
template <class Body>
void parallel_devices(std::size_t n, Body&& body) {
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) body(i);
  };
  std::vector<std::thread> workers;
  for (std::size_t w = 1; w < nproc() && w < n; ++w) {
    workers.emplace_back(work);
  }
  work();
  for (auto& t : workers) t.join();
}

/// The last graph CAPMAN recalibrated on each of the first `devices`
/// devices of chunk 0, so populations that race no CAPMAN get graphs too.
/// `max_graphs` > 1 keeps every recalibration's graph, in order.
std::vector<capman::core::MdpGraph> capman_probe_graphs(
    const FleetWorkload& w, std::size_t devices, std::size_t max_graphs);

/// Keeps the `keep` largest graphs (by action count), largest first.
std::vector<capman::core::MdpGraph> largest_graphs(
    std::vector<capman::core::MdpGraph> graphs, std::size_t keep);

// ---- policy wrapper -----------------------------------------------------

/// Forwards every BatteryPolicy call to a wrapped policy, counting the
/// decisions it forwards and, when timing is on, timing on_event and
/// maintenance. Captures the CAPMAN scheduler's MDP graph after every
/// recalibration when the wrapped policy is CAPMAN.
class ForwardingPolicy final : public capman::policy::BatteryPolicy {
 public:
  struct Probe {
    bool timing = false;        // time on_event / maintenance
    bool capture_graphs = false;
    std::size_t max_graphs = 0;  // keep at most this many captured graphs
    std::vector<double> on_event_us;
    double policy_seconds = 0.0;  // on_event + maintenance wall time
    std::vector<double> recalibrate_ms;
    std::uint64_t recalibrations = 0;
    std::uint64_t threads_in_recalibrations = 0;
    std::uint64_t action_pairs = 0;  // summed over live solves
    std::uint64_t action_pairs_cached = 0;
    std::vector<capman::core::MdpGraph> graphs;
  };

  ForwardingPolicy(std::unique_ptr<capman::policy::BatteryPolicy> inner,
                   Probe* probe);

  [[nodiscard]] std::string name() const override;
  capman::battery::BatterySelection on_event(
      const capman::policy::PolicyContext& context,
      const capman::workload::Action& event) override;
  void record_step(capman::util::Joules delivered,
                   capman::util::Joules losses, bool demand_met) override;
  capman::util::Watts maintenance(capman::util::Seconds now) override;
  [[nodiscard]] bool wants_single_pack() const override;
  [[nodiscard]] capman::core::DegradationStats degradation() const override;
  [[nodiscard]] capman::core::BudgetLevel preferred_budget_level()
      const override;
  [[nodiscard]] std::optional<capman::obs::DecisionDetail>
  last_decision_detail() const override;
  void bind_metrics(capman::obs::MetricsRegistry* registry,
                    bool publish_timings) override;
  void publish_metrics(capman::obs::MetricsRegistry& registry) const override;

  /// Decisions forwarded so far (the benchmark's own count).
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }

 private:
  std::unique_ptr<capman::policy::BatteryPolicy> inner_;
  const capman::core::OnlineScheduler* scheduler_ = nullptr;  // CAPMAN only
  Probe* probe_;
  std::uint64_t decisions_ = 0;
};

// ---- checks.cpp ---------------------------------------------------------

/// Collects failed output checks; a run is correct when none failed.
class CheckLog {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] std::size_t checks() const { return checks_; }

 private:
  std::vector<std::string> failures_;
  std::size_t checks_ = 0;
};

/// Upper bound on the energy a fully charged pack can release: labelled
/// capacity x the chemistry's usable-capacity factor x its maximum
/// open-circuit voltage, per cell, plus the supercapacitor's full charge.
/// Computed from the chemistry catalogue, never from the engine.
double stored_energy_bound_j(const capman::sim::SimConfig& config,
                             bool single_pack);

// Each check returns true when it holds.
bool energy_within_bound(double delivered_j, double lost_j, double bound_j);
bool activity_within_service(double big_s, double little_s, double service_s);
bool decisions_match(std::uint64_t forwarded, std::uint64_t engine_consults);
/// |V(u) - V(v)| <= delta*_S(u, v) / (1 - rho) on every state pair, solved
/// to tight precision. Returns the worst violation (<= 0 means it holds)
/// through `worst` when non-null.
bool similarity_bound_holds(const capman::core::MdpGraph& graph, double rho,
                            double* worst = nullptr,
                            const std::vector<double>* values_override =
                                nullptr);
/// earth_movers_distance with ground distance |i - j| against emd_1d on
/// random distributions; `bias` perturbs the ground distance (self-test).
bool emd_matches_1d(std::uint64_t seed, std::size_t cases, double bias = 0.0);
/// PhoneThermal held at zero power stays at ambient, and heats above it
/// under constant positive power; `zero_power_w` replaces the zero
/// (self-test).
bool thermal_ambient_holds(double zero_power_w = 0.0);
bool snapshots_identical(const std::string& a, const std::string& b);

/// Feeds every check a wrong value and a right one; true when each check
/// rejects the wrong value and accepts the right one.
bool self_test(CheckLog& log);

/// The fleet's deterministic result as text (layout-free metrics).
std::string fleet_fingerprint(const capman::sim::FleetResult& result);

// ---- stats --------------------------------------------------------------

double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// ---- layers.cpp ---------------------------------------------------------

/// Output of one traced run: per-layer metric name -> (value, unit).
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Run the traced mode of `workload`; writes spans and the per-layer
/// summary under `out_dir`.
bool run_traced(const std::string& workload, std::uint64_t seed,
                double seconds, const std::string& out_dir, MetricMap& metrics,
                CheckLog& log, std::uint64_t& attempted);

}  // namespace perfbench
