#include "common/fingerprint.hpp"

#include <cmath>
#include <cstdio>

#include "common/rng.hpp"

namespace safelight {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kGoldenRatio = 0x9e3779b97f4a7c15ULL;
}  // namespace

Fingerprint& Fingerprint::mix_u64(std::uint64_t v) {
  h_ ^= v + kGoldenRatio;
  h_ *= kFnvPrime;
  return *this;
}

Fingerprint& Fingerprint::mix_double(double v) {
  return mix_u64(static_cast<std::uint64_t>(std::llround(v * 1e6)));
}

Fingerprint& Fingerprint::mix_bytes(const void* data, std::size_t count) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < count; ++i) {
    h_ ^= bytes[i];
    h_ *= kFnvPrime;
  }
  return *this;
}

std::string Fingerprint::hex8() const {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>(h_ & 0xffffffffULL));
  return buf;
}

std::string Fingerprint::hex16() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::uint64_t probe_seed_of(const std::string& key) {
  Fingerprint fp;
  fp.mix_bytes(key.data(), key.size());
  return splitmix64(fp.value());
}

}  // namespace safelight
