#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1, what);
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  // The first few failures are enough to diagnose; the count says the rest.
  if (failed > 0 && failures_shown_ < 10) {
    ++failures_shown_;
    std::fprintf(stderr, "perfbench: FAILED %s (%llu of %llu)\n",
                 what.c_str(), static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples, bool json) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  entries_.push_back({name, value, unit, samples, json});
}

void Report::print_lines() const {
  for (const Entry& entry : entries_) {
    std::printf("%-34s %14.6g %-10s (n=%zu)\n", entry.name.c_str(),
                entry.value, entry.unit.c_str(), entry.samples);
  }
  std::printf("%-34s %14.6g %-10s (n=%llu)\n", "error_rate",
              attempted_ ? static_cast<double>(failed_) /
                               static_cast<double>(attempted_)
                         : 0.0,
              "failed/attempted",
              static_cast<unsigned long long>(attempted_));
}

std::string Report::json_line() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const Entry& entry : entries_) {
    if (!entry.json) continue;
    std::snprintf(number, sizeof(number), "%.17g", entry.value);
    out << (first ? "" : ", ") << '"' << entry.name << "\": {\"value\": "
        << number << ", \"unit\": \"" << entry.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(wall_ns() - start_ns) / 1e9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string read_ref(const Options& options, const std::string& name) {
  std::ifstream in(options.ref_dir + "/" + name, std::ios::binary);
  if (!in) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_ref(const Options& options, const std::string& name,
               const std::string& text) {
  const std::string path = options.ref_dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("reference written: %s\n", path.c_str());
}

Budget::Budget(double seconds, int min_passes)
    : start_ns_(wall_ns()), seconds_(seconds), min_passes_(min_passes) {}

bool Budget::more(int passes_done) const {
  return passes_done < min_passes_ || seconds_since(start_ns_) < seconds_;
}

}  // namespace perfbench
