#pragma once
// The four workloads of the benchmark (README.md beside this file). Each
// has an untraced end-to-end run, a traced run that yields its per-layer
// metrics, and a writer for its reference outputs.

#include <string>

#include "common.hpp"

namespace vgrid::obs {
class Profiler;
class Registry;
}  // namespace vgrid::obs

namespace perfbench {

/// The seed whose references every other seed is shape-checked against.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// End-to-end metrics every workload reports. After an untimed warm-up
/// pass, each pass is timed on the wall clock and relative to the
/// reference kernel, which runs right before the first timed pass and
/// right after every pass. A batch of set-ups is timed after every pass
/// too, so that setup_s samples the whole run.
struct EndToEnd {
  std::vector<double> setup_wall_s;
  /// Each set-up's wall time times 0.1 s over the reference kernel's time
  /// just before it: the set-up time on a host where the kernel takes
  /// 0.1 s (layers.cpp). The metric gated in the result line.
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  /// A pass's wall time over the mean of the kernel's times before and
  /// after it; the metric gated in the result line.
  std::vector<double> pass_rel;
  std::vector<double> kernel_s;
  /// Peak resident set after set-up and the warm-up pass, before the
  /// kernel first runs, so the kernel's memory never counts.
  double peak_rss_mb = 0.0;

  /// Call after the warm-up pass, right before the first timed pass.
  void start_passes();
  /// Records a pass that took `seconds` and runs the kernel after it.
  void add_pass(double seconds);
  /// Records a set-up that took `seconds`, run after the kernel last ran.
  void add_setup(double seconds);
};
void report_end_to_end(const EndToEnd& e2e, Report& report);

void figures_run(const Options& options, Report& report);
void figures_layers(const Options& options, double budget_s, Report& report,
                    SpanLog& spans);
void figures_write_refs(const Options& options);

void fleet_run(const Options& options, Report& report);
void fleet_layers(const Options& options, double budget_s, Report& report,
                  SpanLog& spans);
void fleet_write_refs(const Options& options);

void grid_run(const Options& options, Report& report);
void grid_layers(const Options& options, double budget_s, Report& report,
                 SpanLog& spans);
void grid_write_refs(const Options& options);

void mc_run(const Options& options, Report& report);
void mc_layers(const Options& options, double budget_s, Report& report,
               SpanLog& spans);
void mc_write_refs(const Options& options);

/// (traced wall / untraced wall - 1) in percent, from pass medians.
void report_trace_overhead(const char* workload,
                           const std::vector<double>& untraced_s,
                           const std::vector<double>& traced_s,
                           Report& report);

/// Heap allocations and bytes of one untraced pass.
void report_allocs(const char* workload, std::uint64_t count,
                   std::uint64_t bytes, Report& report);

/// A deterministic count of one traced pass, reported with no tolerance.
struct ExactCount {
  const char* name;
  const char* unit;
  std::uint64_t value;
  bool operator==(const ExactCount&) const = default;
};
void report_counts(const std::vector<ExactCount>& counts, Report& report);

/// Totals over every profiler node called `name`, wherever it nests.
struct ScopeTotals {
  std::uint64_t count = 0;
  std::int64_t inclusive_ns = 0;
  std::int64_t exclusive_ns = 0;
};
ScopeTotals scope_totals(const vgrid::obs::Profiler& profiler,
                         const std::string& name);

/// A counter summed over all of its label sets.
std::uint64_t counter_total(const vgrid::obs::Registry& registry,
                            const std::string& name);

}  // namespace perfbench
