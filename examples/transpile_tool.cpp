// paralift-cc: a small command-line transpiler in the spirit of the
// paper's drop-in clang replacement (§III-C). Reads CUDA-subset files
// and prints the IR at a chosen stage. Multiple files compile as one
// CompilerSession batch.
//
// Usage:
//   ./build/examples/transpile_tool file.cu [file2.cu ...]
//                                           [-cuda-lower]
//                                           [-cpuify=fission|fission.mincut]
//                                           [-O0]
// With no flags, runs the full optimizing pipeline (equivalent to
// -cuda-lower -cpuify=fission.mincut).
#include "driver/compiler.h"
#include "ir/printer.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace paralift;

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s file.cu [file2.cu ...] [-cuda-lower] "
                 "[-cpuify=fission|fission.mincut] [-O0]\n",
                 argv[0]);
    return 2;
  }
  std::vector<std::string> paths;
  bool frontendOnly = false;
  transforms::PipelineOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-cuda-lower") {
      frontendOnly = true;
    } else if (arg == "-cpuify=fission") {
      frontendOnly = false;
      opts.minCut = false;
    } else if (arg == "-cpuify=fission.mincut") {
      frontendOnly = false;
      opts.minCut = true;
    } else if (arg == "-O0") {
      opts = transforms::PipelineOptions::optDisabled();
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "no input files\n");
    return 2;
  }

  driver::SessionOptions so;
  // -cuda-lower stops at the frontend view: device functions inlined into
  // the grid/block parallel nests, barriers preserved.
  if (frontendOnly)
    so.pipelineSpec = "inline-kernels";
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> jobs;
  for (const std::string &path : paths) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << file.rdbuf();
    // Single-file diagnostics keep the historic unprefixed format.
    jobs.push_back(&session.addSource(paths.size() > 1 ? path : "",
                                      ss.str(), opts));
  }
  session.compileAll();

  int rc = 0;
  for (driver::CompileJob *job : jobs) {
    if (!job->ok()) {
      std::fprintf(stderr, "%s", job->diagnostics().str().c_str());
      rc = 1;
      continue;
    }
    if (jobs.size() > 1)
      std::printf("// ===== %s =====\n", job->name().c_str());
    std::printf("%s\n", ir::printOp(job->result().module.op()).c_str());
  }
  return rc;
}
