#pragma once
// Shared pieces of vgrid's end-to-end benchmark (README.md beside this
// file): options, the report every workload fills, clocks, order
// statistics, the allocation counter and the in-memory span recorder.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ref_dir = "perfbench/ref";
  std::string out_dir = ".bench_build/spans";
  /// Write this seed's reference outputs instead of checking them.
  bool write_refs = false;
};

/// Everything one invocation prints. Metrics flagged `json` go into the
/// final result line; the others are printed for people only.
class Report {
 public:
  /// One attempted operation; `ok == false` counts it as failed.
  void check(bool ok, const std::string& what);
  /// Many operations at once, `failed` of them failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, bool json = true);
  /// Print every metric as "name value unit (n=samples)".
  void print_lines() const;
  /// The single-line JSON result.
  std::string json_line() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    bool json = true;
  };
  std::vector<Entry> entries_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t failures_shown_ = 0;
};

// ---- clocks and statistics -------------------------------------------------

std::int64_t wall_ns() noexcept;          ///< steady clock
std::int64_t process_cpu_ns() noexcept;   ///< all threads of the process
double seconds_since(std::int64_t start_ns) noexcept;

/// q-quantile by linear interpolation between order statistics (the
/// default of numpy and of Python's statistics.quantiles "inclusive").
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Per-call time (s) of one batch of `batch` calls of `set_up`.
template <typename SetUp>
double time_setup(int batch, SetUp set_up) {
  const std::int64_t start = wall_ns();
  for (int j = 0; j < batch; ++j) set_up();
  return seconds_since(start) / batch;
}

/// Wall time (s) of one run of the reference kernel (reference.cpp): fixed
/// work in the benchmark's own code that a pass's time is divided by.
double reference_kernel_s();

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

/// Reference text `name` under the reference directory, or empty when
/// there is none.
std::string read_ref(const Options& options, const std::string& name);
void write_ref(const Options& options, const std::string& name,
               const std::string& text);

/// Run-length control: at least `min_passes`, then until `seconds` of
/// measured time have elapsed since construction.
class Budget {
 public:
  Budget(double seconds, int min_passes);
  bool more(int passes_done) const;

 private:
  std::int64_t start_ns_;
  double seconds_;
  int min_passes_;
};

// ---- allocation counter (alloc_count.cpp) ----------------------------------
// The benchmark binary replaces the global operator new/delete. Counting
// is off unless enabled, so untraced passes pay one relaxed load per
// allocation.

namespace alloc {
void start() noexcept;  ///< zero the counters and start counting
void stop() noexcept;
std::uint64_t count() noexcept;
std::uint64_t bytes() noexcept;
}  // namespace alloc

// ---- spans (spans.cpp) ------------------------------------------------------

/// The benchmark's own spans around calls into the program: name, start,
/// end and parent, with spans of one figure, shard, RPC or walk step
/// sharing `id`. Thread-confined; merge per-thread logs with append().
/// Kept in memory and written out when the run ends.
class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::int32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::int32_t begin(const char* name, std::uint64_t id,
                     std::int32_t parent = kNoParent);
  void end(std::int32_t index) noexcept;
  /// Add a span whose times were taken elsewhere.
  void record(const Span& span) { spans_.push_back(span); }
  void append(const SpanLog& other);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations (µs) of every span named `name`.
  std::vector<double> durations_us(const char* name) const;
  /// Write every span as one JSON array to `path`.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span on a log that may be null: untraced passes pass nullptr and
/// record nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint64_t id,
            std::int32_t parent = SpanLog::kNoParent)
      : log_(log), index_(log ? log->begin(name, id, parent)
                              : SpanLog::kNoParent) {}
  ~SpanScope() {
    if (log_) log_->end(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::int32_t index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace perfbench
