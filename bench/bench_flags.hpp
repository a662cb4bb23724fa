#pragma once

// Flag values and error exits shared by every bench binary.
//
// A flag value must be wholly a number in its range; anything else
// throws std::invalid_argument naming the flag.  bench_main runs a
// bench's body and turns any std::exception that escapes it into
// `<bench>: <what>` on stderr and exit status 2, as the streamflow CLI
// does, instead of std::terminate.

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace sf::bench {

[[noreturn]] inline void bad_flag(const std::string& flag,
                                  const std::string& text,
                                  const std::string& want) {
  throw std::invalid_argument("--" + flag + "=" + text + ": want " + want);
}

// An integer flag value in [lo, INT_MAX].
inline int flag_int(const std::string& flag, const std::string& text,
                    int lo) {
  constexpr long kMax = std::numeric_limits<int>::max();
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > kMax) {
    bad_flag(flag, text,
             "an integer in [" + std::to_string(lo) + ", " +
                 std::to_string(kMax) + "]");
  }
  return static_cast<int>(v);
}

// A comma-separated list of integer flag values, each in [lo, INT_MAX].
inline std::vector<int> flag_int_list(const std::string& flag,
                                      const std::string& text, int lo) {
  std::vector<int> values;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = text.find(',', pos);
    values.push_back(flag_int(flag, text.substr(pos, comma - pos), lo));
    if (comma == std::string::npos) return values;
    pos = comma + 1;
  }
}

// A finite number flag value, > 0 (or >= 0 where zero means a default).
inline double flag_double(const std::string& flag, const std::string& text,
                          bool zero_ok = false) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v) || v < 0.0 || (v == 0.0 && !zero_ok)) {
    bad_flag(flag, text, zero_ok ? "a number >= 0" : "a number > 0");
  }
  return v;
}

// Runs body(argc, argv); a std::exception from it prints
// `<bench>: <what>` and returns 2.
inline int bench_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    const std::string bench =
        argc > 0 ? std::filesystem::path(argv[0]).filename().string()
                 : std::string("bench");
    std::cerr << bench << ": " << e.what() << '\n';
    return 2;
  }
}

}  // namespace sf::bench
