// Minimal --key=value flag parsing for the CLI tools. No dependencies, no
// registration: parse once, query typed getters with defaults. Every
// getter (and Has) marks its flag read, so once a tool has read what its
// chosen mode uses, Unread() names what the command line gave in vain: a
// misspelled flag, or one that has no effect in that mode. The checked
// getters (GetCount, GetSkew) also refuse a value the model cannot run
// with, and Refused() names those.
#ifndef SPEEDKIT_TOOLS_FLAGS_H_
#define SPEEDKIT_TOOLS_FLAGS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace speedkit::tools {

class Flags {
 public:
  // Consumes "--key=value" and "--key value" forms; everything else is a
  // positional argument.
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      std::string body = arg.substr(2);
      size_t eq = body.find('=');
      if (eq != std::string::npos) {
        values_[body.substr(0, eq)].text = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[body].text = argv[++i];
      } else {
        values_[body].text = "true";
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    const Value* value = Read(key);
    return value == nullptr ? fallback : value->text;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const Value* value = Read(key);
    return value == nullptr ? fallback
                            : std::strtoll(value->text.c_str(), nullptr, 10);
  }

  double GetDouble(const std::string& key, double fallback) const {
    const Value* value = Read(key);
    return value == nullptr ? fallback
                            : std::strtod(value->text.c_str(), nullptr);
  }

  bool GetBool(const std::string& key, bool fallback) const {
    const Value* value = Read(key);
    if (value == nullptr) return fallback;
    return value->text == "true" || value->text == "1" || value->text == "yes";
  }

  // A count such as a catalog size: an integer of at least 1. A smaller
  // value, or text that is no number, is refused and reads as `fallback`.
  size_t GetCount(const std::string& key, size_t fallback) const {
    const Value* value = Read(key);
    if (value == nullptr) return fallback;
    const int64_t count = std::strtoll(value->text.c_str(), nullptr, 10);
    if (count >= 1) return static_cast<size_t>(count);
    value->refusal = "must be at least 1";
    return fallback;
  }

  // A Zipf skew exponent: finite and not negative. Any other value is
  // refused and reads as `fallback`.
  double GetSkew(const std::string& key, double fallback) const {
    const Value* value = Read(key);
    if (value == nullptr) return fallback;
    const double skew = std::strtod(value->text.c_str(), nullptr);
    if (std::isfinite(skew) && skew >= 0) return skew;
    value->refusal = "must be finite and not negative";
    return fallback;
  }

  bool Has(const std::string& key) const { return Read(key) != nullptr; }
  const std::vector<std::string>& positional() const { return positional_; }

  // The names of the flags on the command line that no getter has read,
  // in name order.
  std::vector<std::string> Unread() const {
    std::vector<std::string> unread;
    for (const auto& [key, value] : values_) {
      if (!value.read) unread.push_back(key);
    }
    return unread;
  }

  // "--<name> <rule> (got <value>)" for each flag whose value a checked
  // getter refused, in name order.
  std::vector<std::string> Refused() const {
    std::vector<std::string> refused;
    for (const auto& [key, value] : values_) {
      if (value.refusal != nullptr) {
        refused.push_back("--" + key + " " + value.refusal + " (got " +
                          value.text + ")");
      }
    }
    return refused;
  }

 private:
  struct Value {
    std::string text;
    mutable bool read = false;
    mutable const char* refusal = nullptr;  // the rule a getter found broken
  };

  // The flag, marked read; null when the command line lacks it.
  const Value* Read(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return nullptr;
    it->second.read = true;
    return &it->second;
  }

  std::map<std::string, Value> values_;
  std::vector<std::string> positional_;
};

// Prints "<tool>: --<name> must be ..." to stderr for each of Refused()
// and "<tool>: unused flag --<name>" for each of Unread(), and returns
// whether there was any. A tool calls it once it has read every flag its
// chosen mode uses, and exits 2 when it returns true.
inline bool ReportBadFlags(const Flags& flags, const char* tool) {
  const std::vector<std::string> refused = flags.Refused();
  for (const std::string& why : refused) {
    std::fprintf(stderr, "%s: %s\n", tool, why.c_str());
  }
  const std::vector<std::string> unread = flags.Unread();
  for (const std::string& name : unread) {
    std::fprintf(stderr,
                 "%s: unused flag --%s (misspelled, or no effect here)\n",
                 tool, name.c_str());
  }
  return !refused.empty() || !unread.empty();
}

}  // namespace speedkit::tools

#endif  // SPEEDKIT_TOOLS_FLAGS_H_
