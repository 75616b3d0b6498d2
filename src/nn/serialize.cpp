#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>

namespace dart::nn {

namespace {
constexpr std::uint32_t kMagic = 0xDA27A0D1;

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
}  // namespace

bool save_params(const std::vector<Param*>& params, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  write_u64(out, params.size());
  for (const Param* p : params) {
    write_u64(out, p->name.size());
    out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u64(out, p->value.ndim());
    for (std::size_t d = 0; d < p->value.ndim(); ++d) write_u64(out, p->value.dim(d));
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  return static_cast<bool>(out);
}

void load_params(const std::vector<Param*>& params, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_params: cannot open " + path);
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (magic != kMagic) throw std::runtime_error("load_params: bad magic in " + path);
  const std::uint64_t count = read_u64(in);
  if (count != params.size()) {
    throw std::runtime_error("load_params: parameter count mismatch (checkpoint " +
                             std::to_string(count) + ", model " +
                             std::to_string(params.size()) + ")");
  }
  for (Param* p : params) {
    // Length fields are checked against the model before anything is sized
    // from them: a corrupted field must fail here, not as a huge allocation.
    const std::uint64_t name_len = read_u64(in);
    if (!in || name_len != p->name.size()) {
      throw std::runtime_error("load_params: bad name length for '" + p->name + "' (checkpoint " +
                               std::to_string(name_len) + ")");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    if (name != p->name) {
      throw std::runtime_error("load_params: expected parameter '" + p->name + "', found '" +
                               name + "'");
    }
    const std::uint64_t ndim = read_u64(in);
    if (!in || ndim != p->value.ndim()) {
      throw std::runtime_error("load_params: rank mismatch for '" + name + "' (checkpoint " +
                               std::to_string(ndim) + ")");
    }
    std::vector<std::size_t> shape(ndim);
    for (auto& d : shape) d = read_u64(in);
    if (shape != p->value.shape()) {
      throw std::runtime_error("load_params: shape mismatch for '" + name + "'");
    }
    in.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
    if (!in) throw std::runtime_error("load_params: truncated payload for '" + name + "'");
  }
}

}  // namespace dart::nn
