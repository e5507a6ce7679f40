// Sets (or unsets) an environment variable for the enclosing scope and
// restores the previous value — or its absence — on destruction, so a
// knob one test sets never leaks into later tests of the same binary.
//
// The one sanctioned setenv/unsetenv site under tests/: the raw-setenv
// rule of tools/check_banned_patterns.sh rejects the bare calls anywhere
// else.
#pragma once

#include <stdlib.h>

#include <optional>
#include <string>

namespace mcf {

class ScopedEnv {
 public:
  /// `value == nullptr` unsets the variable for the scope.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = ::getenv(name)) old_ = old;
    set(value);
  }
  ScopedEnv(const char* name, const std::string& value)
      : ScopedEnv(name, value.c_str()) {}
  ~ScopedEnv() { set(old_ ? old_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) const {
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> old_;
};

}  // namespace mcf
