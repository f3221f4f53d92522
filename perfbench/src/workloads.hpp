#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

/// The repository's evaluation seed, the default of every workload.
inline constexpr std::uint64_t kDefaultSeed = 2012;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// One batch, no repetition: the output check in seconds.
  bool smoke = false;
  /// Scratch directory for checkpoint files (created and removed by the
  /// workload).
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// One line per failed output check.
  std::vector<std::string> errors;
  /// Diagnostics printed with the run metadata, not gated.
  std::vector<std::pair<std::string, double>> info;
  Tracer tracer;
};

/// Names accepted by --workload, in documentation order.
const std::vector<std::string>& workload_names();

/// Names and units of every metric a traced run reports, in output order.
/// Every workload reports all of them; a layer the workload never enters
/// reads 0.
const std::vector<Metric>& per_layer_metrics();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
