// Environment-variable primitives (raw getenv + parse).
//
// These are the low-level readers only; knob *resolution* — the CLI flag >
// env > default precedence rule shared by the `safelight` CLI, benches and
// tests — lives in common/config.hpp, which resolves the scale knob through
// config::scale() / config::parse_scale().
#pragma once

#include <string>

namespace safelight {

/// Reads an environment variable; returns fallback when unset/empty.
std::string env_string(const std::string& name, const std::string& fallback);

/// Experiment scale presets; see docs/architecture.md, "ExperimentScale".
/// Controls dataset sizes, model widths and training epochs for the
/// reproduction experiments.
enum class Scale { kTiny, kDefault, kFull };

/// Human-readable scale name.
std::string to_string(Scale scale);

}  // namespace safelight
