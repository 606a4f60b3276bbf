// lint.py --self-test fixture for C1: the journal codec builds each line
// in a std::string through std::to_chars, because every replica encodes
// its whole state at each compaction and a string stream per record was
// the dominant cost.  Exercises both directions: a <sstream> include and
// each string-stream type are findings; std::to_chars, std::string and
// other std::...stream names are not.  NOT compiled; scanned by the
// linter.
#include <charconv>
#include <sstream>                                     // expect-lint: C1
#include <string>

namespace lint_fixture {

std::string chain_line_bad(std::uint32_t id, double traffic) {
  std::ostringstream out;                              // expect-lint: C1
  out << "t=chain;id=" << id << ";ft=" << traffic;
  return out.str();
}

std::uint32_t parse_bad(const std::string& text) {
  std::istringstream in{text};                         // expect-lint: C1
  std::uint32_t id = 0;
  in >> id;
  return id;
}

std::string both_ways_bad() {
  std :: stringstream io;                              // expect-lint: C1
  return io.str();
}

// Writing through to_chars, or to a caller's stream: no findings.
std::ostream& print_ok(std::ostream& os, std::uint32_t id) {
  return os << id;
}

std::string chain_line_ok(std::uint32_t id, double traffic) {
  std::string line = "t=chain;id=";
  char digits[32];
  line.append(digits, std::to_chars(digits, digits + 32, id).ptr);
  line += ";ft=";
  line.append(digits, std::to_chars(digits, digits + 32, traffic,
                                    std::chars_format::general, 17)
                          .ptr);
  return line;
}

}  // namespace lint_fixture
