// Tiny option parser shared by the bench harnesses and examples:
// "--key=value" / "--flag" command-line arguments with environment-variable
// fallbacks (LPOMP_<KEY>), so `for b in build/bench/*; do $b; done` runs with
// sensible defaults while still being steerable.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lpomp {

class Options {
 public:
  Options() = default;

  Options(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) parse_arg(argv[i]);
  }

  /// Parses one "--key=value" or "--flag" token; other tokens are kept as
  /// positional arguments.
  void parse_arg(const std::string& arg) {
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      return;
    }
    // Key and value are constructed from a view and moved into the map:
    // GCC 12 reports a false -Wrestrict overlap when a mapped string is
    // assigned in place (a substr pair, or the literal "1").
    const std::string_view body = std::string_view(arg).substr(2);
    const std::size_t eq = body.find('=');
    std::string value = eq == std::string_view::npos
                            ? std::string("1")
                            : std::string(body.substr(eq + 1));
    values_.insert_or_assign(std::string(body.substr(0, eq)),
                             std::move(value));
  }

  /// Lookup order: command line, then LPOMP_<KEY> env (key uppercased,
  /// '-' -> '_'), then the provided default.
  std::string get(const std::string& key, const std::string& def) const {
    if (auto it = values_.find(key); it != values_.end()) return it->second;
    std::string env_name = "LPOMP_";
    for (char c : key) {
      // std::toupper requires a value representable as unsigned char; a
      // plain (possibly negative) char is UB.
      env_name += (c == '-') ? '_'
                             : static_cast<char>(std::toupper(
                                   static_cast<unsigned char>(c)));
    }
    if (const char* env = std::getenv(env_name.c_str())) return env;
    return def;
  }

  /// Strict: the whole value must be a decimal integer, else the process
  /// exits 2 naming what the flag accepts — `--workers=abc` never silently
  /// becomes the default.
  long get_int(const std::string& key, long def) const {
    const std::string v = get(key, std::to_string(def));
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno == ERANGE) {
      reject(key, v, "a decimal integer");
    }
    return n;
  }

  /// Strict like get_int: the whole value must be a finite number.
  double get_double(const std::string& key, double def) const {
    const std::string v = get(key, std::to_string(def));
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(x)) {
      reject(key, v, "a finite number");
    }
    return x;
  }

  /// Strict like get_int for an unsigned 64-bit value (a seed): decimal, or
  /// hex after a 0x prefix. Signs and spaces are rejected, and a leading 0
  /// is still decimal, not octal.
  std::uint64_t get_uint64(const std::string& key, std::uint64_t def) const {
    const std::string v = get(key, std::to_string(def));
    const bool hex =
        v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
    const std::string digits = hex ? v.substr(2) : v;
    const bool ok =
        !digits.empty() &&
        std::all_of(digits.begin(), digits.end(), [hex](unsigned char c) {
          return hex ? std::isxdigit(c) != 0 : std::isdigit(c) != 0;
        });
    errno = 0;
    const std::uint64_t n =
        ok ? std::strtoull(digits.c_str(), nullptr, hex ? 16 : 10) : 0;
    if (!ok || errno == ERANGE) {
      reject(key, v, "a decimal or 0x-prefixed hex integer");
    }
    return n;
  }

  bool get_flag(const std::string& key, bool def = false) const {
    const std::string v = get(key, def ? "1" : "0");
    return v == "1" || v == "true" || v == "yes" || v == "on";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Exits 2 naming the first command-line flag outside `accepted`, so a
  /// misspelt or retired flag (`--kernel=CG` for `--kernels=`) fails loudly
  /// instead of silently running the default. LPOMP_* environment
  /// fallbacks are not flags and are not checked.
  void require_known(const std::vector<std::string>& accepted) const {
    for (const auto& [key, value] : values_) {
      if (std::find(accepted.begin(), accepted.end(), key) != accepted.end()) {
        continue;
      }
      std::string valid;
      for (const std::string& a : accepted) {
        valid += (valid.empty() ? "--" : ", --") + a;
      }
      std::fprintf(stderr, "unknown flag --%s (accepted: %s)\n", key.c_str(),
                   valid.c_str());
      std::exit(2);
    }
  }

 private:
  [[noreturn]] static void reject(const std::string& key, const std::string& v,
                                  const char* expected) {
    std::fprintf(stderr, "invalid --%s=%s (expected %s)\n", key.c_str(),
                 v.c_str(), expected);
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lpomp
