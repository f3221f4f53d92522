#pragma once

// Shared plumbing for the figure benches: every bench prints its series as
// an ASCII table on stdout and drops the full-resolution data as CSV into
// the working directory so the figures can be replotted.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/csv.hpp"
#include "util/table.hpp"

namespace billcap::bench {

/// Writes `csv` as "<bench_name>.csv" in the current working directory and
/// reports the path on stdout.
inline void save_csv(const util::Csv& csv, const std::string& bench_name) {
  const std::string path = bench_name + ".csv";
  csv.save(path);
  std::printf("[data] %s (%zu rows)\n",
              std::filesystem::absolute(path).string().c_str(),
              csv.num_rows());
}

/// The CPU's brand string, read with cpuid ("unknown" off x86).
inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  const std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

/// The host a bench ran on, as a JSON object: cores, cpu_model, build_type
/// and compiler (the shape perfbench records). BILLCAP_BUILD_TYPE comes
/// from bench/CMakeLists.txt.
inline std::string host_json() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  return "{\"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + cpu_model() +
         "\", \"build_type\": \"" BILLCAP_BUILD_TYPE "\", \"compiler\": \"" +
         compiler + "\"}";
}

/// Prints a section header in a consistent style.
inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace billcap::bench
