// core/hash — tiny FNV-1a 64 streaming hasher.
//
// Used for structural content hashes (ExecArtifacts::content_hash).  Not
// cryptographic: two models that collide merely look identical to a
// content comparison.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>

namespace flint::core {

class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ull;

  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= p[i];
      state_ *= kPrime;
    }
  }

  /// Hash a trivially-copyable value by its object representation.
  template <typename V>
    requires std::is_trivially_copyable_v<V>
  void add(const V& v) noexcept {
    add_bytes(&v, sizeof v);
  }

  template <typename V>
    requires std::is_trivially_copyable_v<V>
  void add_span(std::span<const V> values) noexcept {
    add_bytes(values.data(), values.size_bytes());
  }

  void add_string(std::string_view s) noexcept {
    const std::uint64_t n = s.size();
    add(n);  // length-prefix so "ab","c" != "a","bc"
    add_bytes(s.data(), s.size());
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = kOffset;
};

/// Order-dependent combine for two already-computed hashes.
[[nodiscard]] inline std::uint64_t hash_combine(std::uint64_t a,
                                                std::uint64_t b) noexcept {
  Fnv1a64 h;
  h.add(a);
  h.add(b);
  return h.digest();
}

}  // namespace flint::core
