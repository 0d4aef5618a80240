// Workload `mc`: the model checker's exhaustive exploration of the grid
// protocol — 4 clients, 3 workunits, replication 2, quorum 2, one death,
// sleep sets and the state cache on. It drives ServerLogic with a
// 3-workunit table, so it skips the grid dispatch scan while stressing
// model copies and canonical hashing. It takes no random input: every
// seed explores the same state space.

#include <optional>

#include "mc/explorer.hpp"
#include "mc/invariants.hpp"
#include "mc/model.hpp"
#include "mc/transition.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace mc = vgrid::mc;
namespace obs = vgrid::obs;

constexpr int kSetupBatch = 400;
constexpr int kMinPasses = 5;
/// Steps of the fixed random walk the public GridModel calls are timed on.
constexpr int kWalkSteps = 4000;

mc::ExploreConfig explore_config() {
  mc::ExploreConfig config;
  config.model.clients = 4;
  config.model.workunits = 3;
  config.model.replication = 2;
  config.model.quorum = 2;
  config.model.max_deaths = 1;
  config.use_sleep_sets = true;
  config.use_state_cache = true;
  return config;
}

std::string ref_name() { return "mc.txt"; }

/// The summary carries every ExploreResult counter and the verdict.
void check_result(const mc::ExploreConfig& config,
                  const mc::ExploreResult& result, const std::string& expected,
                  Report& report) {
  report.check(!result.violation && !result.depth_bound_hit &&
                   !result.state_bound_hit &&
                   mc::format_summary(config, result) == expected,
               "mc: exploration differs from the reference");
}

mc::ExploreResult explore(const mc::ExploreConfig& config) {
  return mc::Explorer(config).run();
}

}  // namespace

void mc_run(const Options& options, Report& report) {
  const std::string expected = read_ref(options, ref_name());
  EndToEnd e2e;
  mc::ExploreConfig config;
  std::optional<mc::GridModel> root;
  const auto set_up_again = [&] {
    config = explore_config();
    root.emplace(config.model);
  };
  set_up_again();

  // Untimed warm-up pass: caches fill and lazy set-up finishes.
  check_result(config, explore(config), expected, report);

  e2e.start_passes();
  const Budget budget(options.seconds, kMinPasses);
  for (int pass = 0; budget.more(pass); ++pass) {
    const std::int64_t start = wall_ns();
    const mc::ExploreResult result = explore(config);
    e2e.add_pass(seconds_since(start));
    check_result(config, result, expected, report);
    e2e.add_setup(time_setup(kSetupBatch, set_up_again));
  }

  report_end_to_end(e2e, report);
  report.metric("verify_s", median(e2e.pass_s), "s", e2e.pass_s.size(),
                false);
}

void mc_layers(const Options& options, double budget_s, Report& report,
               SpanLog& spans) {
  const std::string expected = read_ref(options, ref_name());
  const mc::ExploreConfig config = explore_config();

  alloc::start();
  check_result(config, explore(config), expected, report);
  alloc::stop();
  report_allocs("mc", alloc::count(), alloc::bytes(), report);

  std::vector<double> untraced_s, traced_s;
  std::optional<mc::ExploreResult> result;
  const Budget budget(budget_s, 1);
  for (int pass = 0; budget.more(pass); ++pass) {
    std::int64_t start = wall_ns();
    result = explore(config);
    untraced_s.push_back(seconds_since(start));
    check_result(config, *result, expected, report);

    obs::Registry registry;
    obs::register_defaults(registry);
    obs::Profiler profiler;
    {
      obs::ScopedRegistry registry_scope(&registry);
      obs::ScopedProfiler profiler_scope(&profiler);
      const SpanScope span(&spans, "mc.explore",
                           static_cast<std::uint64_t>(pass));
      start = wall_ns();
      result = explore(config);
      traced_s.push_back(seconds_since(start));
    }
    check_result(config, *result, expected, report);
  }

  // A fixed walk (fixed LCG, not the seed) through the model: each step
  // times the public GridModel copy, execute, state_hash and
  // InvariantChecker::check, as the explorer uses them on every state.
  std::uint64_t lcg = 0x2545F4914F6CDD1DULL;
  std::uint64_t step = 0;
  while (step < kWalkSteps) {
    mc::GridModel model(config.model);
    mc::InvariantChecker checker;
    while (step < kWalkSteps && !model.terminal()) {
      const std::vector<mc::Action> actions = model.enabled();
      if (actions.empty()) break;
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const mc::Action action = actions[(lcg >> 33) % actions.size()];
      const SpanScope step_span(&spans, "mc.step", step);
      std::optional<mc::GridModel> child;
      {
        const SpanScope span(&spans, "mc.copy", step, step_span.index());
        child.emplace(model);
      }
      mc::InvariantChecker child_checker = checker;
      {
        const SpanScope span(&spans, "mc.execute", step, step_span.index());
        const mc::ScopedObserver observer(&child_checker);
        child->execute(action);
      }
      {
        const SpanScope span(&spans, "mc.hash", step, step_span.index());
        (void)child->state_hash();
      }
      std::optional<mc::Violation> violation;
      {
        const SpanScope span(&spans, "mc.check", step, step_span.index());
        violation = child_checker.check(*child);
      }
      report.check(!violation, "mc: invariant violated on the fixed walk");
      model = std::move(*child);
      checker = std::move(child_checker);
      ++step;
    }
  }

  report.metric("mc.states", static_cast<double>(result->states_visited),
                "count", 1);
  report.metric("mc.distinct", static_cast<double>(result->distinct_states),
                "count", 1);
  report.metric("mc.transitions", static_cast<double>(result->transitions),
                "count", 1);
  report.metric("mc.sleep_pruned", static_cast<double>(result->sleep_pruned),
                "count", 1);
  report.metric("mc.visited_pruned",
                static_cast<double>(result->visited_pruned), "count", 1);
  report.metric("mc.us_per_state",
                median(untraced_s) * 1e6 /
                    static_cast<double>(result->states_visited),
                "us", untraced_s.size());
  for (const char* part : {"copy", "execute", "hash", "check"}) {
    const std::string span = std::string("mc.") + part;
    const std::vector<double> us = spans.durations_us(span.c_str());
    report.metric(span + "_us", mean(us), "us", us.size());
  }
  report_trace_overhead("mc", untraced_s, traced_s, report);
}

void mc_write_refs(const Options& options) {
  const mc::ExploreConfig config = explore_config();
  write_ref(options, ref_name(), mc::format_summary(config, explore(config)));
}

}  // namespace perfbench
