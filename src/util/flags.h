#ifndef ADALSH_UTIL_FLAGS_H_
#define ADALSH_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adalsh {

/// Minimal `--key=value` / `--key value` command-line parser for the CLI,
/// bench and example binaries. Not a general flags library: every binary
/// declares the flags it reads through the typed getters. A command-line
/// mistake (a positional argument, a value that does not parse, an unknown
/// flag) is a usage error, not a program fault: it prints
/// `<program>: <message>` to stderr and exits with status 1, so scripts fail
/// loudly on typos without a crash report.
class Flags {
 public:
  /// Parses argv. Recognized forms: `--name=value`, `--name value`, and bare
  /// `--name` (boolean true). Exits on a positional argument.
  Flags(int argc, char** argv);

  /// Typed getters with defaults. Exit if the value does not parse or, for
  /// integers, does not fit in 64 bits.
  int64_t GetInt(const std::string& name, int64_t default_value);
  /// GetInt for a value the caller keeps in an `int`: one outside int's
  /// range exits too, rather than narrowing to some other number.
  int GetInt32(const std::string& name, int default_value);
  double GetDouble(const std::string& name, double default_value);
  bool GetBool(const std::string& name, bool default_value);
  std::string GetString(const std::string& name,
                        const std::string& default_value);

  /// Comma-separated integer list (e.g. `--ks=2,5,10,20`).
  std::vector<int64_t> GetIntList(const std::string& name,
                                  const std::vector<int64_t>& default_value);
  /// Comma-separated double list (e.g. `--thresholds=0.3,0.4,0.5`).
  std::vector<double> GetDoubleList(const std::string& name,
                                    const std::vector<double>& default_value);

  /// Exits if any parsed flag was never read by a getter. Call after all
  /// getters to catch misspelled flags.
  void CheckNoUnusedFlags() const;

 private:
  const std::string* Find(const std::string& name);

  /// Prints `<program>: <message>` to stderr and exits with status 1.
  [[noreturn]] void Fail(const std::string& message) const;

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> used_;
  std::string program_name_;
};

}  // namespace adalsh

#endif  // ADALSH_UTIL_FLAGS_H_
