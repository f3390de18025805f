// jit/jit — compile-and-load runtime for generated forest code.
//
// The arch-forest framework the paper builds on generates source files that
// are compiled offline and linked into the measurement binary.  This module
// performs the same step in-process: generated C/assembly sources are
// written to a scratch directory, compiled into a shared object with the
// system C compiler, and loaded with dlopen.  The handle owns both the
// dlopen'd module and the scratch directory (removed on destruction unless
// keep_artifacts is set for inspection).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "codegen/emit.hpp"

namespace flint::jit {

/// Compiler-driver knobs for the JIT runtime.
struct JitOptions {
  /// Compiler driver; must understand .c and .s inputs and -shared -fPIC.
  std::string compiler = "cc";
  /// Optimization level for the generated code (arch-forest uses -O3; the
  /// harness default is lower to keep large sweeps fast — the *relative*
  /// comparison between flavors is preserved, see docs/BENCHMARKS.md).
  int opt_level = 2;
  std::vector<std::string> extra_flags;
  /// Keep the scratch directory (sources, .so, compiler log) on disk.
  bool keep_artifacts = false;
  /// Base directory for scratch dirs; empty = $TMPDIR or /tmp.
  std::string scratch_base;
};

/// A loaded module.  Movable, non-copyable; unloads and cleans up on
/// destruction.
class JitModule {
 public:
  JitModule(JitModule&& other) noexcept;
  JitModule& operator=(JitModule&& other) noexcept;
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;
  ~JitModule();

  /// Resolves a symbol; throws std::runtime_error if absent.
  [[nodiscard]] void* raw_symbol(const std::string& name) const;

  /// Typed convenience wrapper: `module.function<int(const float*)>("f")`.
  template <typename Fn>
  [[nodiscard]] Fn* function(const std::string& name) const {
    return reinterpret_cast<Fn*>(raw_symbol(name));
  }

  /// Scratch directory holding sources and the shared object.
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// Size of the compiled shared object in bytes.
  [[nodiscard]] std::size_t object_size() const noexcept { return object_size_; }

 private:
  friend JitModule compile(std::span<const codegen::SourceFile>,
                           const JitOptions&);
  JitModule() = default;

  void* handle_ = nullptr;
  std::string dir_;
  std::size_t object_size_ = 0;
  bool keep_ = false;
};

/// Writes `sources` into a fresh scratch directory, compiles them into one
/// shared object and loads it.  Throws std::runtime_error with the captured
/// compiler diagnostics on failure.
[[nodiscard]] JitModule compile(std::span<const codegen::SourceFile> sources,
                                const JitOptions& options = {});

/// Convenience overload for a GeneratedCode module.
[[nodiscard]] JitModule compile(const codegen::GeneratedCode& code,
                                const JitOptions& options = {});

/// int <sym>(const T* pX) — the classify ABI of every generated module.
template <typename T>
using ClassifyFn = int(const T*);

}  // namespace flint::jit
