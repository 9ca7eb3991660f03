// sweep_merge — recombine sharded sweep envelopes into the single-process
// document.
//
//   ndpsim --config grid.json --shard 0/3 --json s0.json
//   ndpsim --config grid.json --shard 1/3 --json s1.json
//   ndpsim --config grid.json --shard 2/3 --json s2.json
//   sweep_merge --out merged.json s0.json s1.json s2.json
//
// merged.json is byte-identical to what one `ndpsim --config grid.json
// --json merged.json` run writes (tests/serve_test.cpp pins this): the
// per-cell result texts are spliced raw in global spec order, the
// "aggregate" object is recomputed through the same code path the batch
// writer uses, and the shard provenance blocks are dropped. Shard files
// may be given in any order; envelopes from different grids, a missing or
// duplicated shard, or a wrong shard count are hard errors, not guesses.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "sim/sweep_runner.h"

namespace {

bool read_all(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    *out = ss.str();
    return true;
  }
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Envelopes on disk end with the '\n' write_output appended; the merge
/// works on the bare document.
void trim_trailing_ws(std::string* s) {
  while (!s->empty() && (s->back() == '\n' || s->back() == '\r' ||
                         s->back() == ' ' || s->back() == '\t'))
    s->pop_back();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "-";
  std::vector<std::string> shard_paths;
  ndp::Flags flags(
      "[--out=PATH] SHARD.json [SHARD.json ...]",
      "Merge the JSON envelopes of `ndpsim --config G --shard i/N` runs\n"
      "(given in any order) into the document a single unsharded run of\n"
      "G would have written, byte for byte.\n");
  flags.text("--out", ndp::Flags::kAll, "PATH", &out_path,
             "write the merged envelope here (default '-', stdout)");
  flags.positional(&shard_paths);
  if (const std::optional<int> code = flags.parse(argc, argv)) return *code;
  if (shard_paths.empty()) {
    std::fprintf(stderr, "no shard files given\n\n%s", flags.help().c_str());
    return 2;
  }

  std::vector<std::string> envelopes(shard_paths.size());
  for (std::size_t i = 0; i < shard_paths.size(); ++i) {
    if (!read_all(shard_paths[i], &envelopes[i])) {
      std::fprintf(stderr, "cannot read '%s'\n", shard_paths[i].c_str());
      return 1;
    }
    trim_trailing_ws(&envelopes[i]);
  }

  std::string merged;
  try {
    merged = ndp::merge_sharded_envelopes(envelopes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  if (out_path == "-") {
    std::printf("%s\n", merged.c_str());
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out << merged << '\n';
  std::fprintf(stderr, "wrote %s (%zu shards merged)\n", out_path.c_str(),
               shard_paths.size());
  return 0;
}
