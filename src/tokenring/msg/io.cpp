#include "tokenring/msg/io.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/common/cli.hpp"

namespace tokenring::msg {

namespace {

std::vector<std::string> split_commas(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  std::ostringstream os;
  os << "scenario CSV line " << line_no << ": " << what;
  throw ParseError(os.str());
}

}  // namespace

std::string to_csv(const MessageSet& set) {
  // The 4th column appears only when some stream carries an explicit
  // constrained deadline, so paper-model files stay in the simple format.
  bool any_deadline = false;
  for (const auto& s : set.streams()) {
    any_deadline |= s.relative_deadline > 0.0;
  }
  std::ostringstream os;
  os << (any_deadline ? "station,period_ms,payload_bits,deadline_ms\n"
                      : "station,period_ms,payload_bits\n");
  os.precision(17);
  for (const auto& s : set.streams()) {
    os << s.station << "," << to_milliseconds(s.period) << ","
       << s.payload_bits;
    if (any_deadline) os << "," << to_milliseconds(s.relative_deadline);
    os << "\n";
  }
  return os.str();
}

MessageSet message_set_from_csv(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  bool has_deadline_column = false;
  MessageSet set;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    if (!saw_header) {
      if (stripped == "station,period_ms,payload_bits") {
        has_deadline_column = false;
      } else if (stripped == "station,period_ms,payload_bits,deadline_ms") {
        has_deadline_column = true;
      } else {
        fail(line_no,
             "expected header 'station,period_ms,payload_bits[,deadline_ms]'"
             ", got '" +
                 stripped + "'");
      }
      saw_header = true;
      continue;
    }
    const auto cells = split_commas(stripped);
    const std::size_t expected = has_deadline_column ? 4u : 3u;
    if (cells.size() != expected) {
      fail(line_no, "expected " + std::to_string(expected) +
                        " comma-separated fields, got " +
                        std::to_string(cells.size()));
    }
    const auto number = [&](std::size_t i) {
      const auto value = parse_double(cells[i]);
      if (!value) fail(line_no, "not a number: '" + trim(cells[i]) + "'");
      return *value;
    };
    const auto station = parse_int64(cells[0]);
    if (!station || *station < std::numeric_limits<int>::min() ||
        *station > std::numeric_limits<int>::max()) {
      fail(line_no, "station is not an int: '" + trim(cells[0]) + "'");
    }
    SyncStream s;
    s.station = static_cast<int>(*station);
    s.period = milliseconds(number(1));
    s.payload_bits = number(2);
    if (has_deadline_column) s.relative_deadline = milliseconds(number(3));
    try {
      s.validate();
    } catch (const PreconditionError& e) {
      fail(line_no, e.what());
    }
    set.add(s);
  }
  if (!saw_header) throw ParseError("scenario CSV: missing header line");
  return set;
}

MessageSet load_message_set(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open scenario file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return message_set_from_csv(buffer.str());
}

void save_message_set(const std::string& path, const MessageSet& set) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot write scenario file: " + path);
  out << to_csv(set);
  if (!out) throw ParseError("write failed for scenario file: " + path);
}

}  // namespace tokenring::msg
