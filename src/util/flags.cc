#include "util/flags.h"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

namespace adalsh {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  std::string current;
  std::istringstream in(s);
  while (std::getline(in, current, ',')) parts.push_back(current);
  return parts;
}

/// strtoll over the whole of `text`. Returns why `text` is refused ("is not
/// an integer", "is out of range" past 64 bits), or nullptr.
const char* ParseInt(const std::string& text, int64_t* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') return "is not an integer";
  return errno == ERANGE ? "is out of range" : nullptr;
}

/// strtod over the whole of `text`: false when it is empty or has trailing
/// characters.
bool ParseDouble(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  if (argc > 0) {
    program_name_ = argv[0];
    const size_t slash = program_name_.rfind('/');
    if (slash != std::string::npos) program_name_.erase(0, slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      Fail("unexpected positional argument '" + arg + "'");
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

void Flags::Fail(const std::string& message) const {
  std::cerr << program_name_ << ": " << message << "\n";
  std::exit(1);
}

const std::string* Flags::Find(const std::string& name) {
  auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  used_[name] = true;
  return &it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) {
  const std::string* raw = Find(name);
  if (raw == nullptr) return default_value;
  int64_t value = 0;
  if (const char* error = ParseInt(*raw, &value)) {
    Fail("--" + name + "=" + *raw + " " + error);
  }
  return value;
}

int Flags::GetInt32(const std::string& name, int default_value) {
  const int64_t value = GetInt(name, default_value);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    Fail("--" + name + "=" + std::to_string(value) +
         " does not fit in an int");
  }
  return static_cast<int>(value);
}

double Flags::GetDouble(const std::string& name, double default_value) {
  const std::string* raw = Find(name);
  if (raw == nullptr) return default_value;
  double value = 0.0;
  if (!ParseDouble(*raw, &value)) {
    Fail("--" + name + "=" + *raw + " is not a number");
  }
  return value;
}

bool Flags::GetBool(const std::string& name, bool default_value) {
  const std::string* raw = Find(name);
  if (raw == nullptr) return default_value;
  if (*raw == "true" || *raw == "1") return true;
  if (*raw == "false" || *raw == "0") return false;
  Fail("--" + name + "=" + *raw + " is not a boolean");
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) {
  const std::string* raw = Find(name);
  return raw == nullptr ? default_value : *raw;
}

std::vector<int64_t> Flags::GetIntList(
    const std::string& name, const std::vector<int64_t>& default_value) {
  const std::string* raw = Find(name);
  if (raw == nullptr) return default_value;
  std::vector<int64_t> result;
  for (const std::string& part : SplitCommas(*raw)) {
    int64_t value = 0;
    if (const char* error = ParseInt(part, &value)) {
      Fail("--" + name + ": '" + part + "' " + error);
    }
    result.push_back(value);
  }
  return result;
}

std::vector<double> Flags::GetDoubleList(
    const std::string& name, const std::vector<double>& default_value) {
  const std::string* raw = Find(name);
  if (raw == nullptr) return default_value;
  std::vector<double> result;
  for (const std::string& part : SplitCommas(*raw)) {
    double value = 0.0;
    if (!ParseDouble(part, &value)) {
      Fail("--" + name + ": '" + part + "' is not a number");
    }
    result.push_back(value);
  }
  return result;
}

void Flags::CheckNoUnusedFlags() const {
  for (const auto& [name, value] : values_) {
    auto it = used_.find(name);
    if (it == used_.end() || !it->second) Fail("unknown flag --" + name);
  }
}

}  // namespace adalsh
