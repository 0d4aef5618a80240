// Workload `fleet`: `fleet-small` at 20,000 hosts, one worker (as for the
// figures), lifecycle journal on (the `vgrid fleet` default). The same
// sim, os and hw layers as the figures, used as tens of thousands of
// short-lived testbeds, plus sampling, churn and the per-shard registry
// and journal merges.

#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "fleet/fleet.hpp"
#include "fleet/sampler.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "scenario/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fleet = vgrid::fleet;
namespace obs = vgrid::obs;

constexpr std::uint64_t kHosts = 20'000;
/// Hosts 0 .. kProbeHosts-1 of the run's population: the fixed sample
/// sample_host and simulate_host are timed on.
constexpr std::uint64_t kProbeHosts = 2'000;
constexpr int kSetupBatch = 40;
constexpr int kMinPasses = 5;

struct Setup {
  vgrid::scenario::Scenario scenario;
  fleet::FleetConfig config;
};

Setup set_up(std::uint64_t seed) {
  Setup setup{vgrid::scenario::load("fleet-small"), {}};
  setup.config.hosts = kHosts;
  setup.config.jobs = 1;
  setup.config.seed = seed;
  return setup;
}

std::string ref_name(std::uint64_t seed) {
  return "fleet-seed" + std::to_string(seed) + ".txt";
}

/// Checks each pass: the summary must equal this seed's reference (or,
/// without one, the first pass's), and selfcheck must find nothing.
class SummaryChecker {
 public:
  explicit SummaryChecker(const Options& options)
      : expected_(read_ref(options, ref_name(options.seed))) {}

  void check(const Setup& setup, const fleet::FleetResult& result,
             Report& report) {
    const std::string summary =
        fleet::format_summary(setup.scenario, result);
    if (expected_.empty()) expected_ = summary;
    report.check(summary == expected_,
                 "fleet: summary differs from the reference");
    const std::vector<std::string> violations = fleet::selfcheck(result);
    report.check(violations.empty(),
                 "fleet: selfcheck: " +
                     (violations.empty() ? std::string() : violations[0]));
  }

 private:
  std::string expected_;
};

}  // namespace

void fleet_run(const Options& options, Report& report) {
  EndToEnd e2e;
  std::optional<Setup> setup;
  const auto set_up_again = [&] { setup.emplace(set_up(options.seed)); };
  set_up_again();

  SummaryChecker checker(options);
  // Untimed warm-up pass: caches fill and lazy set-up finishes.
  checker.check(*setup, fleet::run_fleet(setup->scenario, setup->config),
                report);

  e2e.start_passes();
  const Budget budget(options.seconds, kMinPasses);
  for (int pass = 0; budget.more(pass); ++pass) {
    const std::int64_t start = wall_ns();
    const fleet::FleetResult result =
        fleet::run_fleet(setup->scenario, setup->config);
    e2e.add_pass(seconds_since(start));
    checker.check(*setup, result, report);
    e2e.add_setup(time_setup(kSetupBatch, set_up_again));
  }

  report_end_to_end(e2e, report);
  report.metric("hosts_per_s",
                static_cast<double>(kHosts) / median(e2e.pass_s), "hosts/s",
                e2e.pass_s.size(), false);
}

void fleet_layers(const Options& options, double budget_s, Report& report,
                  SpanLog& spans) {
  const Setup setup = set_up(options.seed);
  SummaryChecker checker(options);

  alloc::start();
  checker.check(setup, fleet::run_fleet(setup.scenario, setup.config),
                report);
  alloc::stop();
  report_allocs("fleet", alloc::count(), alloc::bytes(), report);

  // The fixed host sample, timed through the public per-host functions.
  const auto& spec = *setup.scenario.fleet;
  std::vector<fleet::HostConfig> hosts;
  hosts.reserve(kProbeHosts);
  std::int64_t start = wall_ns();
  for (std::uint64_t i = 0; i < kProbeHosts; ++i) {
    hosts.push_back(fleet::sample_host(spec, options.seed, i));
  }
  const double sample_us =
      static_cast<double>(wall_ns() - start) / 1e3 / kProbeHosts;
  start = wall_ns();
  for (const fleet::HostConfig& host : hosts) {
    (void)fleet::simulate_host(setup.scenario, host);
  }
  const double simulate_us =
      static_cast<double>(wall_ns() - start) / 1e3 / kProbeHosts;

  std::vector<double> untraced_s, traced_s, cpu_us_per_host, shard_s;
  // Exact counts of each traced pass; every pass must repeat the first.
  std::vector<ExactCount> counts;
  std::uint64_t events = 0, resched_passes = 0;
  std::optional<std::tuple<std::vector<ExactCount>, std::uint64_t,
                           std::uint64_t>>
      first_counts;
  const Budget budget(budget_s, 1);
  for (int pass = 0; budget.more(pass); ++pass) {
    const std::int64_t cpu_start = process_cpu_ns();
    start = wall_ns();
    const fleet::FleetResult plain =
        fleet::run_fleet(setup.scenario, setup.config);
    untraced_s.push_back(seconds_since(start));
    cpu_us_per_host.push_back(
        static_cast<double>(process_cpu_ns() - cpu_start) / 1e3 / kHosts);
    checker.check(setup, plain, report);

    // Traced: profiler installed, and shard spans from on_progress — a
    // shard's span runs from its worker's previous completion to its own.
    obs::Profiler profiler;
    fleet::FleetConfig config = setup.config;
    std::mutex mutex;
    std::unordered_map<std::thread::id, std::int64_t> last_done;
    const auto pass_id = static_cast<std::uint64_t>(pass);
    const std::int32_t pass_span = spans.begin("fleet.pass", pass_id);
    const std::int64_t pass_start = wall_ns();
    config.on_progress = [&](const fleet::FleetProgress&) {
      const std::int64_t now = wall_ns();
      const std::lock_guard<std::mutex> lock(mutex);
      auto [it, inserted] =
          last_done.try_emplace(std::this_thread::get_id(), pass_start);
      shard_s.push_back(static_cast<double>(now - it->second) / 1e9);
      spans.record({"fleet.shard", pass_id, pass_span, it->second, now});
      it->second = now;
    };
    std::optional<fleet::FleetResult> traced;
    {
      obs::ScopedProfiler profiler_scope(&profiler);
      traced.emplace(fleet::run_fleet(setup.scenario, config));
    }
    traced_s.push_back(seconds_since(pass_start));
    spans.end(pass_span);
    checker.check(setup, *traced, report);

    std::uint64_t deaths = 0, wasted_ms = 0;
    for (const fleet::HostMetrics& host : traced->raw) {
      deaths += static_cast<std::uint64_t>(host.deaths);
      wasted_ms += static_cast<std::uint64_t>(host.wasted_ms);
    }
    events = counter_total(*traced->registry, "sim.events.dispatched");
    resched_passes = scope_totals(profiler, "os.scheduler.resched_pass").count;
    counts = {
        {"fleet.deaths", "count", deaths},
        {"fleet.wasted_ms", "sim_ms", wasted_ms},
        {"obs.eventlog_closed", "count", traced->event_log->traces_closed()},
        {"obs.eventlog_retained", "count",
         traced->event_log->retained_count()},
    };
    const auto pass_counts = std::tuple(counts, events, resched_passes);
    if (!first_counts) first_counts = pass_counts;
    report.check(pass_counts == *first_counts,
                 "fleet: exact work counts differ between traced passes");
  }

  report_counts(counts, report);
  report.metric("sim.events_per_host", static_cast<double>(events) / kHosts,
                "count", 1);
  report.metric("os.resched_per_host",
                static_cast<double>(resched_passes) / kHosts, "count", 1);
  report.metric("fleet.sample_us", sample_us, "us", kProbeHosts);
  report.metric("fleet.simulate_us", simulate_us, "us", kProbeHosts);
  report.metric("fleet.rest_us",
                median(cpu_us_per_host) - sample_us - simulate_us, "us",
                cpu_us_per_host.size());
  report.metric("fleet.shard_s_p50", median(shard_s), "s", shard_s.size());
  report.metric("fleet.shard_s_max", quantile(shard_s, 1.0), "s",
                shard_s.size());
  report_trace_overhead("fleet", untraced_s, traced_s, report);
}

void fleet_write_refs(const Options& options) {
  const Setup setup = set_up(options.seed);
  const fleet::FleetResult result =
      fleet::run_fleet(setup.scenario, setup.config);
  if (!fleet::selfcheck(result).empty()) {
    throw std::runtime_error("fleet selfcheck fails; no reference written");
  }
  write_ref(options, ref_name(options.seed),
            fleet::format_summary(setup.scenario, result));
}

}  // namespace perfbench
