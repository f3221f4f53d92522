// perfbench: runs one workload of the hourly control loop and prints its
// metrics as one JSON line (see ../README.md).
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--work-dir DIR] [--spans-out FILE] [--commit SHA]
//
// Exit codes: 0 outputs correct, 1 an output check failed, 2 usage error.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.hpp"

namespace {

using perfbench::Metric;

struct UsageError {
  std::string message;
};

std::string join_names() {
  std::string out;
  for (const std::string& n : perfbench::workload_names())
    out += (out.empty() ? "" : ", ") + n;
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    throw UsageError{flag + ": expected a non-negative integer, got '" + v + "'"};
  try {
    return std::stoull(v);
  } catch (const std::exception&) {
    throw UsageError{flag + ": out of range: '" + v + "'"};
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string spans_out;
  std::string commit = "unknown";
  try {
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--smoke") {
        opt.smoke = true;
        continue;
      }
      const char* const valued[] = {"--workload", "--seed",      "--seconds",
                                    "--trace",    "--work-dir",  "--spans-out",
                                    "--commit"};
      bool known = false;
      for (const char* v : valued) known = known || flag == v;
      if (!known)
        throw UsageError{"unknown flag '" + flag +
                         "'; valid flags: --workload --seed --seconds --trace "
                         "--smoke --work-dir --spans-out --commit; valid "
                         "workloads: " + join_names()};
      if (i + 1 >= argc) throw UsageError{flag + ": missing value"};
      const std::string value = argv[++i];
      if (flag == "--workload") {
        bool valid = false;
        for (const std::string& n : perfbench::workload_names())
          valid = valid || n == value;
        if (!valid)
          throw UsageError{"unknown workload '" + value +
                           "'; valid workloads: " + join_names()};
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = parse_u64(flag, value);
      } else if (flag == "--seconds") {
        const std::uint64_t s = parse_u64(flag, value);
        if (s < 1 || s > 3600) throw UsageError{"--seconds: expected 1..3600"};
        opt.seconds = static_cast<double>(s);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1")
          throw UsageError{"--trace: expected 0 or 1"};
        opt.trace = value == "1";
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--spans-out") {
        spans_out = value;
      } else {
        commit = value;
      }
    }
    if (!have_workload)
      throw UsageError{"--workload is required; valid workloads: " +
                       join_names()};
    if (opt.work_dir.empty()) throw UsageError{"--work-dir is required"};
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.message.c_str());
    return 2;
  }

  const perfbench::RunResult result = perfbench::run_workload(opt);
  for (const std::string& e : result.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  if (opt.trace && !spans_out.empty() &&
      !result.tracer.write_jsonl(spans_out))
    std::fprintf(stderr, "perfbench: could not write %s\n", spans_out.c_str());

  std::string meta = "{\"meta\": {\"workload\": \"" + opt.workload +
                     "\", \"seed\": " + std::to_string(opt.seed) +
                     ", \"seconds\": " + number(opt.seconds) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"smoke\": " + (opt.smoke ? "true" : "false") +
                     ", \"cores\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"cpu_model\": \"" + json_escape(cpu_model()) +
                     "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                     "\", \"compiler\": \"" + json_escape(kCompiler) +
                     "\", \"commit\": \"" + json_escape(commit) + "\"";
  for (const auto& [name, value] : result.info)
    meta += ", \"" + name + "\": " + number(value);
  meta += "}}";
  std::printf("%s\n", meta.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, metrics_json(result.metrics).c_str());
  return result.correct ? 0 : 1;
}
