// FNV-1a-based fingerprint builder shared by the on-disk caches.
//
// Three caches key their files on content fingerprints (the model zoo on
// training configs, the weights checksum on parameter bytes, the sweep
// result stores on corruption physics). They must all use the same mixing
// so a change to quantization or output width lands everywhere at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace safelight {

/// Incremental FNV-1a hash with convenience mixers. mix_u64/mix_double add
/// a golden-ratio salt per value (order-sensitive, collision-resistant for
/// short config vectors); mix_bytes is the plain byte-stream FNV-1a used
/// for bulk data like weight tensors.
class Fingerprint {
 public:
  Fingerprint& mix_u64(std::uint64_t v);

  /// Doubles are quantized to 1e-6 before mixing so semantically equal
  /// configs fingerprint equally across platforms.
  Fingerprint& mix_double(double v);

  Fingerprint& mix_bytes(const void* data, std::size_t count);

  /// Short form: low 32 bits as 8 hex chars (cache file name component).
  std::string hex8() const;

  /// Full 64-bit digest as 16 hex chars (content checksums).
  std::string hex16() const;

  /// Raw 64-bit digest (seed derivation from string identifiers).
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Detector probe seed of a sweep cell: FNV-1a over its full key, then
/// splitmix64. Every run or check reads independent sensor noise, and a
/// cached score is a pure function of the key.
std::uint64_t probe_seed_of(const std::string& key);

}  // namespace safelight
