// flint_perfbench — the repository benchmark's driver binary.
//
//   flint_perfbench gen --kind serve|deep --seed N --out DIR
//       trains the seed's model and writes DIR/model.flint + DIR/pool.bin
//   flint_perfbench run --workload W --inputs DIR --seed N --seconds S
//                       --trace 0|1 [--spans FILE]
//       set-up, measured phase, correctness check; prints human-readable
//       lines, then one JSON result line last.  Exits 1 when any
//       prediction differs from Forest::predict.
//
// perfbench/run.py builds this binary, caches `gen` output per seed and
// invokes `run`; see perfbench/README.md.
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "inputs.hpp"
#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

int usage() {
  std::fputs(
      "usage: flint_perfbench gen --kind serve|deep --seed N --out DIR\n"
      "       flint_perfbench run --workload W --inputs DIR --seed N "
      "--seconds S --trace 0|1 [--spans FILE]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const auto flags = parse_flags(argc, argv);
    if (command == "gen") {
      const auto inputs = perfbench::generate_inputs(
          perfbench::parse_model_kind(require(flags, "kind")),
          std::stoull(require(flags, "seed")));
      perfbench::write_inputs(inputs, require(flags, "out"));
      return 0;
    }
    if (command == "run") {
      perfbench::RunConfig cfg;
      cfg.workload = require(flags, "workload");
      cfg.inputs_dir = require(flags, "inputs");
      cfg.seed = std::stoull(require(flags, "seed"));
      cfg.seconds = std::stod(require(flags, "seconds"));
      cfg.trace = require(flags, "trace") == "1";
      if (const auto it = flags.find("spans"); it != flags.end()) {
        cfg.spans_out = it->second;
      }
      const auto result = perfbench::run_workload(cfg);
      for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
      if (!result.correct) {
        std::printf("MISMATCH: %llu predictions differ from Forest::predict\n",
                    static_cast<unsigned long long>(result.mismatched));
      }
      std::printf("%s\n", perfbench::result_json(result).c_str());
      std::fflush(stdout);
      return result.correct ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flint_perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
