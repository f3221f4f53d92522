#pragma once

#include <initializer_list>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace billcap::util {

/// A bad command line (unparseable value, out-of-range flag, contradictory
/// flags). Tools catch this separately from std::runtime_error and exit
/// with the usage code (2) instead of the generic error code (1).
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// Minimal command-line parser for the repository's tools:
///   prog <command> [--flag value] [--flag=value] [--switch] [positional...]
/// Every flag is collected at parse time; a command then rejects the ones
/// its flag tables do not list (require_known) so a misspelled flag fails
/// instead of silently running the defaults. Values are typed on access
/// with defaults.
class CliArgs {
 public:
  /// One command's flag names, without the leading dashes.
  using FlagTable = std::span<const std::string_view>;

  /// Parses argv (argv[0] is skipped). The first non-flag token becomes the
  /// command; later non-flag tokens are positionals.
  CliArgs(int argc, const char* const* argv);

  const std::string& command() const noexcept { return command_; }
  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// True if the flag was given (with or without a value).
  bool has(const std::string& name) const;

  /// Typed access with defaults. Throws std::runtime_error when the flag is
  /// present but not parseable as the requested type.
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;
  double get_double(const std::string& name, double fallback) const;
  long get_long(const std::string& name, long fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Comma-separated list of doubles ("0.5e6,1e6,2e6").
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> fallback) const;

  /// Range-validated access: these reject NaN/out-of-range values with a
  /// UsageError naming the flag, so degenerate configurations (negative
  /// fault rates, zero mean durations, non-positive deadlines) fail fast
  /// with exit code 2 instead of silently producing a broken run.
  /// A probability in [0, 1].
  double get_prob(const std::string& name, double fallback) const;
  /// A finite double > 0.
  double get_positive_double(const std::string& name, double fallback) const;
  /// An integer >= 1.
  long get_positive_long(const std::string& name, long fallback) const;

  /// True when one of `tables` lists `name`.
  static bool listed(std::string_view name,
                     std::initializer_list<FlagTable> tables);
  /// Throws a UsageError naming the first given flag (in name order) that
  /// none of `tables` lists.
  void require_known(std::initializer_list<FlagTable> tables) const;

 private:
  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> flags_;  // name (no dashes) -> value
};

}  // namespace billcap::util
