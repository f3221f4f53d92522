#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace billcap::util {

namespace {

bool is_flag(const std::string& token) {
  return token.size() >= 3 && token[0] == '-' && token[1] == '-';
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (is_flag(token)) {
      const std::string body = token.substr(2);
      const std::size_t eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && !is_flag(argv[i + 1])) {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "";  // bare switch
      }
    } else if (command_.empty()) {
      command_ = token;
    } else {
      positionals_.push_back(token);
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end != it->second.c_str() + it->second.size() || it->second.empty())
    throw std::runtime_error("--" + name + ": expected a number, got '" +
                             it->second + "'");
  return value;
}

long CliArgs::get_long(const std::string& name, long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  if (end != it->second.c_str() + it->second.size() || it->second.empty())
    throw std::runtime_error("--" + name + ": expected an integer, got '" +
                             it->second + "'");
  return value;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1")
    return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::runtime_error("--" + name + ": expected a boolean, got '" +
                           it->second + "'");
}

std::vector<double> CliArgs::get_double_list(
    const std::string& name, std::vector<double> fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::vector<double> out;
  std::string current;
  auto flush = [&] {
    if (current.empty()) return;
    char* end = nullptr;
    const double value = std::strtod(current.c_str(), &end);
    if (end != current.c_str() + current.size())
      throw std::runtime_error("--" + name + ": bad list item '" + current +
                               "'");
    out.push_back(value);
    current.clear();
  };
  for (char c : it->second) {
    if (c == ',')
      flush();
    else
      current.push_back(c);
  }
  flush();
  if (out.empty())
    throw std::runtime_error("--" + name + ": empty list");
  return out;
}

double CliArgs::get_prob(const std::string& name, double fallback) const {
  double value = fallback;
  try {
    value = get_double(name, fallback);
  } catch (const std::runtime_error& e) {
    throw UsageError(e.what());
  }
  if (std::isnan(value) || value < 0.0 || value > 1.0)
    throw UsageError("--" + name + ": expected a probability in [0, 1], got " +
                     get(name));
  return value;
}

double CliArgs::get_positive_double(const std::string& name,
                                    double fallback) const {
  double value = fallback;
  try {
    value = get_double(name, fallback);
  } catch (const std::runtime_error& e) {
    throw UsageError(e.what());
  }
  if (!std::isfinite(value) || value <= 0.0)
    throw UsageError("--" + name + ": expected a finite value > 0, got " +
                     get(name));
  return value;
}

long CliArgs::get_positive_long(const std::string& name, long fallback) const {
  long value = fallback;
  try {
    value = get_long(name, fallback);
  } catch (const std::runtime_error& e) {
    throw UsageError(e.what());
  }
  if (value < 1)
    throw UsageError("--" + name + ": expected an integer >= 1, got " +
                     get(name));
  return value;
}

bool CliArgs::listed(std::string_view name,
                     std::initializer_list<FlagTable> tables) {
  return std::any_of(tables.begin(), tables.end(), [name](FlagTable table) {
    return std::find(table.begin(), table.end(), name) != table.end();
  });
}

void CliArgs::require_known(std::initializer_list<FlagTable> tables) const {
  for (const auto& [name, value] : flags_)
    if (!listed(name, tables)) throw UsageError("unknown flag --" + name);
}

}  // namespace billcap::util
