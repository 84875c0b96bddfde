#include "nn/serialize.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace safelight::nn {

namespace {

constexpr char kMagic[4] = {'S', 'L', 'W', '1'};

std::uint64_t fnv1a(const std::vector<char>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char b : bytes) {
    hash ^= static_cast<unsigned char>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename T>
void append(std::vector<char>& buffer, const T& value) {
  const char* raw = reinterpret_cast<const char*>(&value);
  buffer.insert(buffer.end(), raw, raw + sizeof(T));
}

template <typename T>
T read_value(const std::vector<char>& buffer, std::size_t& offset) {
  if (offset + sizeof(T) > buffer.size()) {
    throw std::runtime_error("load_model: truncated file");
  }
  T value;
  std::memcpy(&value, buffer.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

struct NamedTensor {
  std::string name;
  std::uint8_t kind;
  Tensor* tensor;
};

std::vector<NamedTensor> collect(Sequential& model) {
  std::vector<NamedTensor> out;
  std::size_t index = 0;
  for (Param* p : model.params()) {
    out.push_back({p->name + "#" + std::to_string(index++),
                   static_cast<std::uint8_t>(p->kind), &p->value});
  }
  index = 0;
  for (Tensor* t : model.state_tensors()) {
    out.push_back({"state#" + std::to_string(index++), 255, t});
  }
  return out;
}

}  // namespace

void save_model(Sequential& model, const std::string& path) {
  std::vector<char> buffer;
  buffer.insert(buffer.end(), kMagic, kMagic + 4);
  const auto tensors = collect(model);
  append(buffer, static_cast<std::uint32_t>(tensors.size()));
  for (const auto& nt : tensors) {
    append(buffer, static_cast<std::uint32_t>(nt.name.size()));
    buffer.insert(buffer.end(), nt.name.begin(), nt.name.end());
    append(buffer, nt.kind);
    append(buffer, static_cast<std::uint32_t>(nt.tensor->rank()));
    for (std::size_t d : nt.tensor->shape()) {
      append(buffer, static_cast<std::uint64_t>(d));
    }
    const char* raw = reinterpret_cast<const char*>(nt.tensor->data());
    buffer.insert(buffer.end(), raw,
                  raw + nt.tensor->numel() * sizeof(float));
  }
  const std::uint64_t checksum = fnv1a(buffer);
  append(buffer, checksum);

  // Stage-and-rename: a crash anywhere before the rename leaves `path`
  // untouched (either absent or the previous valid file) plus a `.tmp`
  // orphan that ResultStore's open sweep reclaims; a crash after the rename
  // leaves the complete new file. No crash point can leave a half-written
  // model under `path` — load_model's checksum is the backstop, not the
  // first line of defense. The fault::ptp points pin each boundary (see
  // common/fault.hpp and tests/fault_injection_test.cpp).
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("save_model: cannot open " + tmp_path);
    const std::streamsize half =
        static_cast<std::streamsize>(buffer.size() / 2);
    out.write(buffer.data(), half);
    if (fault::armed()) out.flush();
    fault::ptp("nn.serialize.tmp_write");  // crash: half-written tmp orphan
    out.write(buffer.data() + half,
              static_cast<std::streamsize>(buffer.size()) - half);
    if (!out) {
      throw std::runtime_error("save_model: write failed for " + tmp_path);
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("save_model: flush failed for " + tmp_path);
    }
  }
  fault::ptp("nn.serialize.rename");  // crash: complete tmp orphan, no entry
  std::filesystem::rename(tmp_path, path);
  fault::ptp("nn.serialize.committed");  // crash: just after the commit
}

namespace {

/// Parses and validates the file; fills `loaded` (one Tensor per slot) but
/// does not touch the model. Throws std::runtime_error on any violation.
std::vector<Tensor> parse_and_validate(Sequential& model,
                                       const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  const auto file_size = static_cast<std::size_t>(in.tellg());
  if (file_size < 4 + 4 + 8) {
    throw std::runtime_error("load_model: file too small: " + path);
  }
  std::vector<char> buffer(file_size);
  in.seekg(0);
  in.read(buffer.data(), static_cast<std::streamsize>(file_size));
  if (!in) throw std::runtime_error("load_model: read failed for " + path);

  // Verify checksum over everything except the trailing 8 bytes.
  std::vector<char> payload(buffer.begin(), buffer.end() - 8);
  std::size_t tail_offset = file_size - 8;
  const auto stored = read_value<std::uint64_t>(buffer, tail_offset);
  if (fnv1a(payload) != stored) {
    throw std::runtime_error("load_model: checksum mismatch in " + path);
  }

  std::size_t offset = 0;
  if (std::memcmp(buffer.data(), kMagic, 4) != 0) {
    throw std::runtime_error("load_model: bad magic in " + path);
  }
  offset = 4;
  const auto count = read_value<std::uint32_t>(buffer, offset);
  const auto slots = collect(model);
  if (count != slots.size()) {
    throw std::runtime_error("load_model: tensor count mismatch (file has " +
                             std::to_string(count) + ", model expects " +
                             std::to_string(slots.size()) + ")");
  }

  std::vector<Tensor> loaded;
  loaded.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto name_len = read_value<std::uint32_t>(buffer, offset);
    if (offset + name_len > buffer.size()) {
      throw std::runtime_error("load_model: truncated name");
    }
    offset += name_len;  // names are informative only
    (void)read_value<std::uint8_t>(buffer, offset);
    const auto rank = read_value<std::uint32_t>(buffer, offset);
    Shape shape(rank);
    for (auto& d : shape) {
      d = static_cast<std::size_t>(read_value<std::uint64_t>(buffer, offset));
    }
    if (shape != slots[i].tensor->shape()) {
      throw std::runtime_error(
          "load_model: shape mismatch at tensor " + std::to_string(i) +
          ": file " + shape_to_string(shape) + " vs model " +
          shape_to_string(slots[i].tensor->shape()));
    }
    const std::size_t numel = shape_numel(shape);
    if (offset + numel * sizeof(float) > buffer.size()) {
      throw std::runtime_error("load_model: truncated tensor data");
    }
    std::vector<float> data(numel);
    std::memcpy(data.data(), buffer.data() + offset, numel * sizeof(float));
    offset += numel * sizeof(float);
    loaded.emplace_back(shape, std::move(data));
  }
  return loaded;
}

}  // namespace

void load_model(Sequential& model, const std::string& path) {
  auto loaded = parse_and_validate(model, path);
  const auto slots = collect(model);
  SAFELIGHT_ASSERT(loaded.size() == slots.size(),
                   "load_model: validated count changed");
  for (std::size_t i = 0; i < slots.size(); ++i) {
    *slots[i].tensor = std::move(loaded[i]);
  }
}

std::vector<Tensor> snapshot_state(Sequential& model) {
  std::vector<Tensor> out;
  const auto slots = collect(model);
  out.reserve(slots.size());
  for (const auto& slot : slots) out.push_back(*slot.tensor);
  return out;
}

void restore_state(Sequential& model, const std::vector<Tensor>& snapshot) {
  const auto slots = collect(model);
  require(snapshot.size() == slots.size(),
          "restore_state: snapshot tensor count mismatch");
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (snapshot[i].shape() != slots[i].tensor->shape()) {
      fail_argument("restore_state: shape mismatch at tensor " +
                    std::to_string(i));
    }
    *slots[i].tensor = snapshot[i];
  }
}

bool model_file_matches(Sequential& model, const std::string& path) {
  if (!std::filesystem::exists(path)) return false;
  try {
    (void)parse_and_validate(model, path);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace safelight::nn
