// Minimal command-line flag parsing for the CLI tools (no external deps).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace md::tools {

/// Parses "--key value" and "--key=value" pairs. Each tool lists the flags
/// it accepts; an unknown flag or a positional argument is an error, so a
/// typo never runs the default configuration unnoticed.
class Flags {
 public:
  using Known = std::initializer_list<std::string_view>;

  Flags() = default;

  /// Parses argv; on an error prints it and exits with status 2.
  Flags(int argc, char** argv, Known known) {
    const std::string error = Parse(argc, argv, known);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      std::exit(2);
    }
  }

  /// Parses argv into this object. Returns "" on success, else the message
  /// naming the offending argument.
  std::string Parse(int argc, char** argv, Known known) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) return "unexpected argument: " + arg;
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      const std::string key = arg.substr(0, eq);
      if (!IsKnown(key, known)) return UnknownFlag(key, known);
      if (eq != std::string::npos) {
        Add(key, arg.substr(eq + 1));
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        Add(key, argv[++i]);
      } else {
        Add(key, "true");  // bare flag
      }
    }
    return "";
  }

  [[nodiscard]] std::string Get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() || it->second.empty() ? fallback
                                                     : it->second.back();
  }

  [[nodiscard]] long GetInt(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return fallback;
    return std::atol(it->second.back().c_str());
  }

  [[nodiscard]] bool GetBool(const std::string& key, bool fallback = false) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return fallback;
    return it->second.back() == "true" || it->second.back() == "1";
  }

  /// All values given for a repeatable flag (e.g. --peer ... --peer ...).
  [[nodiscard]] std::vector<std::string> GetAll(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  [[nodiscard]] bool Has(const std::string& key) const {
    return values_.contains(key);
  }

 private:
  static bool IsKnown(std::string_view key, Known known) {
    for (const std::string_view k : known) {
      if (k == key) return true;
    }
    return false;
  }

  static std::string UnknownFlag(const std::string& key, Known known) {
    std::string message = "unknown flag: --" + key + " (accepted:";
    for (const std::string_view k : known) {
      message += " --";
      message += k;
    }
    return message + ")";
  }

  void Add(const std::string& key, std::string value) {
    values_[key].push_back(std::move(value));
  }

  std::map<std::string, std::vector<std::string>> values_;
};

}  // namespace md::tools
