// jit/options — compiler-driver knobs for the JIT runtime.
//
// Included only by jit/jit.hpp; no other header carries JitOptions, so the
// struct could live in jit.hpp itself.
#pragma once

#include <string>
#include <vector>

namespace flint::jit {

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

}  // namespace flint::jit
