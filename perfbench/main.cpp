// vgrid's end-to-end benchmark (README.md beside this file).
//
//   perfbench --workload figures|fleet|grid|mc --seed N --seconds S
//             --trace 0|1 [--ref-dir DIR] [--out-dir DIR] [--write-refs]
//
// --trace 0 runs one workload untraced for S seconds and prints its
// end-to-end metrics. --trace 1 prints the per-layer table, which spans
// all four workloads: each is run untraced and with obs::Registry and
// obs::Profiler installed, within S seconds together. Either way the last
// line of stdout is the JSON result.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
  void (*layers)(const Options&, double, Report&, SpanLog&);
  void (*write_refs)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"figures", figures_run, figures_layers, figures_write_refs},
    {"fleet", fleet_run, fleet_layers, fleet_write_refs},
    {"grid", grid_run, grid_layers, grid_write_refs},
    {"mc", mc_run, mc_layers, mc_write_refs},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "figures|fleet|grid|mc --seed N --seconds S --trace 0|1 "
               "[--ref-dir DIR] [--out-dir DIR] [--write-refs]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-refs") {
      options.write_refs = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--ref-dir") {
      options.ref_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

const Workload* find(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

int run(const Options& options) {
  if (options.write_refs) {
    for (const Workload& workload : kWorkloads) workload.write_refs(options);
    return 0;
  }
  const Workload* workload = find(options.workload);
  if (workload == nullptr) usage("unknown --workload");

  Report report;
  if (!options.trace) {
    workload->run(options, report);
  } else {
    SpanLog spans;
    const double share = options.seconds / std::size(kWorkloads);
    for (const Workload& each : kWorkloads) {
      each.layers(options, share, report, spans);
    }
    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/spans.json";
    spans.write_json(path);
    std::printf("spans written: %s (%zu spans)\n", path.c_str(),
                spans.spans().size());
  }
  std::printf("workload %s, seed %llu, %s\n", workload->name,
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced (per-layer metrics of all workloads)"
                            : "untraced (end-to-end metrics)");
  report.print_lines();
  std::printf("%s\n", report.json_line().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
