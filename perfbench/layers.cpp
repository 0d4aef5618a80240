// Report helpers shared by the four workloads.

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// About the reference kernel's wall time on the VM that sized the
/// benchmark, at its fastest then (README.md, "Relative time").
constexpr double kKernelNominalS = 0.1;

}  // namespace

void EndToEnd::start_passes() {
  peak_rss_mb = peak_rss_mib();
  kernel_s.push_back(reference_kernel_s());
}

void EndToEnd::add_pass(double seconds) {
  pass_s.push_back(seconds);
  kernel_s.push_back(reference_kernel_s());
  const double around = (kernel_s.end()[-2] + kernel_s.end()[-1]) / 2.0;
  pass_rel.push_back(seconds / around);
}

void EndToEnd::add_setup(double seconds) {
  setup_wall_s.push_back(seconds);
  setup_s.push_back(seconds * kKernelNominalS / kernel_s.back());
}

void report_end_to_end(const EndToEnd& e2e, Report& report) {
  report.metric("setup_s", median(e2e.setup_s), "s", e2e.setup_s.size());
  report.metric("pass_rel", median(e2e.pass_rel), "kernels",
                e2e.pass_rel.size());
  report.metric("peak_rss_mb", e2e.peak_rss_mb, "MiB", 1);
  report.metric("setup_wall_s", median(e2e.setup_wall_s), "s",
                e2e.setup_wall_s.size(), false);
  report.metric("pass_s", median(e2e.pass_s), "s", e2e.pass_s.size(), false);
  report.metric("kernel_s", median(e2e.kernel_s), "s", e2e.kernel_s.size(),
                false);
}

void report_trace_overhead(const char* workload,
                           const std::vector<double>& untraced_s,
                           const std::vector<double>& traced_s,
                           Report& report) {
  report.metric(std::string("obs.trace_overhead_pct.") + workload,
                100.0 * (median(traced_s) / median(untraced_s) - 1.0), "%",
                traced_s.size());
}

void report_allocs(const char* workload, std::uint64_t count,
                   std::uint64_t bytes, Report& report) {
  report.metric(std::string("host.allocs.") + workload,
                static_cast<double>(count), "count", 1);
  report.metric(std::string("host.alloc_bytes.") + workload,
                static_cast<double>(bytes), "bytes", 1);
}

void report_counts(const std::vector<ExactCount>& counts, Report& report) {
  for (const ExactCount& count : counts) {
    report.metric(count.name, static_cast<double>(count.value), count.unit,
                  1);
  }
}

ScopeTotals scope_totals(const vgrid::obs::Profiler& profiler,
                         const std::string& name) {
  ScopeTotals totals;
  const auto& nodes = profiler.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name != name) continue;
    totals.count += nodes[i].count;
    totals.inclusive_ns += nodes[i].inclusive_ns;
    totals.exclusive_ns +=
        profiler.exclusive_ns(static_cast<std::int32_t>(i));
  }
  return totals;
}

std::uint64_t counter_total(const vgrid::obs::Registry& registry,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& labels : registry.label_sets(name)) {
    total += registry.find_counter(name, labels)->value();
  }
  return total;
}

}  // namespace perfbench
