#include "common/env.hpp"

#include <cstdlib>

namespace safelight {

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') return fallback;
  return value;
}

std::string to_string(Scale scale) {
  switch (scale) {
    case Scale::kTiny: return "tiny";
    case Scale::kFull: return "full";
    case Scale::kDefault: break;
  }
  return "default";
}

}  // namespace safelight
