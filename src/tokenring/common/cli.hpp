// Minimal command-line flag parsing for bench/example binaries.
//
// Flags are `--name=value` or `--name value`. Unknown flags are an error so
// typos surface immediately. Each binary declares its flags up front, which
// doubles as `--help` text.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tokenring {

/// Upper bounds for CliFlags::get_int(name, min, max) at the common
/// narrowings: counts and sizes kept in an int, and seeds kept in a
/// std::uint64_t (a negative seed is refused, never wrapped).
inline constexpr std::int64_t kIntFlagMax = std::numeric_limits<int>::max();
inline constexpr std::int64_t kSeedFlagMax =
    std::numeric_limits<std::int64_t>::max();

/// Parses `--key=value` style flags with typed accessors and defaults.
class CliFlags {
 public:
  /// Declare a flag before parsing. `help` is shown by `--help`.
  void declare(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Outcome of parse_detailed: callers distinguish an explicit help
  /// request (exit 0) from a flag error (exit 1).
  enum class ParseOutcome { kOk, kHelp, kError };

  /// Parse argv. Prints usage on kHelp (`--help`/`-h`) and on kError
  /// (unknown flag, missing value, stray positional), with the error
  /// reason on stderr first.
  ParseOutcome parse_detailed(int argc, char** argv);

  /// Typed accessors; flag must have been declared. Numbers are strict
  /// (parse_double / parse_int64): a value that is not exactly one number
  /// throws PreconditionError naming the flag.
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// get_int, also rejecting values outside [min, max] with a
  /// PreconditionError naming the flag and the range. Use it wherever the
  /// value is narrowed to a smaller or unsigned type (kIntFlagMax,
  /// kSeedFlagMax below).
  std::int64_t get_int(const std::string& name, std::int64_t min,
                       std::int64_t max) const;

  /// Comma-separated list of numbers (parse_double_list), with errors
  /// naming the flag.
  std::vector<double> get_double_list(const std::string& name) const;

  /// True iff the flag was declared (not necessarily set on the command
  /// line). Lets shared helpers probe for optional flags.
  bool has(const std::string& name) const { return flags_.count(name) > 0; }

  /// Every declared flag with its final (post-parse) value, sorted by name.
  /// Used to echo the effective configuration into run manifests.
  std::vector<std::pair<std::string, std::string>> items() const;

  /// Print usage for all declared flags.
  void print_usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
};

/// Strict number parsing, shared by the flag getters and the scenario CSV
/// reader: the whole text, less surrounding blanks, must be one number in
/// range ("1e3" is no integer, "100x" no number); nullopt otherwise.
std::optional<double> parse_double(std::string_view text);
std::optional<std::int64_t> parse_int64(std::string_view text);

/// Split a comma-separated list into values ("1,2,5" -> {1,2,5}); empty
/// items are skipped. Throws PreconditionError on an item that is not a
/// number.
std::vector<double> parse_double_list(const std::string& csv);

/// Declare the standard `--jobs` flag (worker threads for parallel Monte
/// Carlo; 0 = hardware concurrency, 1 = sequential). Every binary that
/// sweeps Monte Carlo points declares it through here so the wording and
/// default stay uniform.
void declare_jobs_flag(CliFlags& flags);

/// Read the `--jobs` flag declared by `declare_jobs_flag`. Rejects
/// negative values; returns 0 for "use hardware concurrency".
std::size_t get_jobs(const CliFlags& flags);

/// A count flag such as `--stations` or `--sets`: get_int(name, 1,
/// kIntFlagMax).
int get_count(const CliFlags& flags, const std::string& name);

/// The `--seed` flag: get_int("seed", 0, kSeedFlagMax).
std::uint64_t get_seed(const CliFlags& flags);

/// Declare the standard `--batch` flag (trials saturated per lockstep SoA
/// batch in the Monte Carlo boundary search). Like `--jobs`, a pure
/// throughput knob: results are bit-identical for every value.
void declare_batch_flag(CliFlags& flags);

/// Read the `--batch` flag declared by `declare_batch_flag`. Rejects
/// values < 1. A batch larger than the trial count is fine: a batch group
/// is min(batch, trials) lanes wide.
std::size_t get_batch(const CliFlags& flags);

}  // namespace tokenring
