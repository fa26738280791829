// schedule_search_demo — regenerates the committed worst-case corpus under
// tests/schedules/ from its manifest (search::corpus_manifest(), beside the
// fixture table in src/sim/schedule_fixtures.cpp).
//
//   ./schedule_search_demo --regenerate=tests/schedules
//   ./schedule_search_demo --regenerate=DIR stack_epoch.sched ...
//
// Each manifest row states its file's whole search (fixture, mode,
// processes, pool, cycles, workload, context bound, executions, crashes,
// prelude); search::regenerate runs it, checks the found script with two
// fresh replays and stamps its golden bounds. With file names, only those
// rows are regenerated. Run from the checkout, the command leaves
// `git diff tests/schedules` empty unless the searcher or a fixture
// changed; CorpusHygiene.EveryCommittedScriptRegeneratesByteForByte checks
// the same in tier-1.
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/schedule_search.h"

int main(int argc, char** argv) {
  using namespace aba;
  std::string out_dir;
  std::set<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--regenerate=")) {
      out_dir = arg.substr(13);
    } else if (arg.starts_with("-")) {
      out_dir.clear();
      break;
    } else {
      wanted.insert(arg);
    }
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "usage: %s --regenerate=DIR [file.sched ...]\n",
                 argv[0]);
    return 2;
  }

  int failed = 0;
  const bool all = wanted.empty();
  for (const search::CorpusRow& row : search::corpus_manifest()) {
    if (!all && wanted.erase(row.file) == 0) continue;
    const std::string path = out_dir + "/" + row.file;
    try {
      const std::string text = search::regenerate(row);
      std::ofstream out(path, std::ios::binary);
      out << text;
      if (!out.good()) throw std::runtime_error("cannot write " + path);
      std::printf("wrote %s\n", path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      ++failed;
    }
  }
  for (const std::string& name : wanted) {
    std::fprintf(stderr, "%s: no corpus manifest row\n", name.c_str());
    ++failed;
  }
  return failed == 0 ? 0 : 1;
}
