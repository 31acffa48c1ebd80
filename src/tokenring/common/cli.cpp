#include "tokenring/common/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "tokenring/common/checks.hpp"

namespace tokenring {

namespace {

/// Run a strto* conversion over `text` less surrounding blanks; nullopt
/// unless it consumed every character without a range error.
template <typename T, typename Convert>
std::optional<T> parse_whole(std::string_view text, Convert convert) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return std::nullopt;
  const auto last = text.find_last_not_of(" \t\r");
  const std::string s(text.substr(begin, last + 1 - begin));
  char* end = nullptr;
  errno = 0;
  const T value = convert(s.c_str(), &end);
  if (errno == ERANGE || end != s.c_str() + s.size()) return std::nullopt;
  return value;
}

}  // namespace

std::optional<double> parse_double(std::string_view text) {
  return parse_whole<double>(text, [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

std::optional<std::int64_t> parse_int64(std::string_view text) {
  return parse_whole<std::int64_t>(text, [](const char* s, char** end) {
    return static_cast<std::int64_t>(std::strtoll(s, end, 10));
  });
}

void CliFlags::declare(const std::string& name, const std::string& default_value,
                       const std::string& help) {
  TR_EXPECTS_MSG(!flags_.count(name), "flag declared twice: " + name);
  flags_[name] = Flag{default_value, help};
}

CliFlags::ParseOutcome CliFlags::parse_detailed(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return ParseOutcome::kHelp;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      print_usage(argv[0]);
      return ParseOutcome::kError;
    }
    std::string name;
    std::string value;
    bool have_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
      have_value = true;
    } else {
      name = arg.substr(2);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      print_usage(argv[0]);
      return ParseOutcome::kError;
    }
    if (!have_value) {
      // Boolean flags (default "true"/"false") may appear bare: `--profile`.
      const std::string& dflt = it->second.value;
      const bool boolean_like = dflt == "true" || dflt == "false";
      const bool next_is_flag =
          i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0;
      if (boolean_like && next_is_flag) {
        value = "true";
      } else if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        print_usage(argv[0]);
        return ParseOutcome::kError;
      } else {
        value = argv[++i];
      }
    }
    it->second.value = value;
  }
  return ParseOutcome::kOk;
}

std::string CliFlags::get_string(const std::string& name) const {
  auto it = flags_.find(name);
  TR_EXPECTS_MSG(it != flags_.end(), "flag not declared: " + name);
  return it->second.value;
}

double CliFlags::get_double(const std::string& name) const {
  const std::string v = get_string(name);
  if (const auto value = parse_double(v)) return *value;
  throw PreconditionError("flag --" + name + " is not a number: " + v);
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  const std::string v = get_string(name);
  if (const auto value = parse_int64(v)) return *value;
  throw PreconditionError("flag --" + name + " is not an integer: " + v);
}

std::int64_t CliFlags::get_int(const std::string& name, std::int64_t min,
                               std::int64_t max) const {
  const std::int64_t value = get_int(name);
  if (value < min || value > max) {
    throw PreconditionError("flag --" + name + " must be in [" +
                            std::to_string(min) + ", " + std::to_string(max) +
                            "]: " + get_string(name));
  }
  return value;
}

std::vector<double> CliFlags::get_double_list(const std::string& name) const {
  const std::string v = get_string(name);
  try {
    return parse_double_list(v);
  } catch (const PreconditionError&) {
    throw PreconditionError("flag --" + name + " is not a number list: " + v);
  }
}

bool CliFlags::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw PreconditionError("flag --" + name + " is not a boolean: " + v);
}

std::vector<std::pair<std::string, std::string>> CliFlags::items() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(flags_.size());
  for (const auto& [name, flag] : flags_) out.emplace_back(name, flag.value);
  return out;
}

void CliFlags::print_usage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.value.c_str());
  }
}

void declare_jobs_flag(CliFlags& flags) {
  flags.declare("jobs", "0",
                "worker threads (0 = hardware concurrency, 1 = sequential); "
                "results are identical for every value");
}

std::size_t get_jobs(const CliFlags& flags) {
  return static_cast<std::size_t>(flags.get_int("jobs", 0, kIntFlagMax));
}

int get_count(const CliFlags& flags, const std::string& name) {
  return static_cast<int>(flags.get_int(name, 1, kIntFlagMax));
}

std::uint64_t get_seed(const CliFlags& flags) {
  return static_cast<std::uint64_t>(flags.get_int("seed", 0, kSeedFlagMax));
}

void declare_batch_flag(CliFlags& flags) {
  flags.declare("batch", "64",
                "trials saturated per lockstep SoA batch (>= 1); "
                "results are identical for every value");
}

std::size_t get_batch(const CliFlags& flags) {
  return static_cast<std::size_t>(flags.get_int("batch", 1, kIntFlagMax));
}

std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto value = parse_double(item);
    if (!value) throw PreconditionError("not a number: '" + item + "'");
    out.push_back(*value);
  }
  return out;
}

}  // namespace tokenring
