// Name-based pass registry: maps textual pass names onto Pass factories,
// and parses parameterized textual pipelines in the mlir-opt style:
//
//   "inline,unroll{max-trip=16},cpuify{mincut=false},omp-lower"
//
// The language has one composite construct, repetition:
//
//   "repeat{n=3}(canonicalize,cse)"
//
// which runs the parenthesized sub-pipeline n times (children must be
// function passes; n defaults to 2 and is elided when default).
//
// Specs round-trip: building a PassManager from a spec and printing
// PassManager::pipelineSpec() yields a canonical form that parses back to
// the identical pipeline (variant names like "cpuify-nomincut" normalize
// to their parameterized form, e.g. "cpuify{mincut=false}").
#pragma once

#include "transforms/passes.h"

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace paralift::transforms {

struct PassInfo {
  std::string name;
  std::string description;
  /// Creates a fresh pass instance preset to this entry's configuration.
  std::function<std::unique_ptr<Pass>()> create;
};

/// All registered passes, in a stable order suitable for --help listings.
const std::vector<PassInfo> &passRegistry();

/// Finds a pass by name; nullptr if unknown.
const PassInfo *lookupPass(const std::string &name);

/// One element of a parsed pipeline spec: a pass name plus textual
/// `key=value` options (in source order), plus — for composite passes
/// like repeat — a nested sub-pipeline.
struct PassSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;
  std::vector<PassSpec> nested;
};

/// Parses a textual pipeline spec ("a,b{k=v,k2=v2},repeat{n=2}(c,d)")
/// without instantiating passes. Reports syntax errors through `diag`;
/// name and option validity is checked later by buildPipelineFromSpec.
std::optional<std::vector<PassSpec>>
parsePipelineSpec(const std::string &spec, DiagnosticEngine &diag);

/// Instantiates one parsed spec element (resolving repeat recursively).
/// Reports unknown names/options through `diag`; nullptr on error.
std::unique_ptr<Pass> instantiatePassSpec(const PassSpec &ps,
                                          DiagnosticEngine &diag);

/// Parses `spec` and appends the instantiated passes to `pm`. Reports
/// unknown pass names, unknown options, and bad option values through
/// `diag`; returns false on any error (passes appended so far remain).
bool buildPipelineFromSpec(PassManager &pm, const std::string &spec,
                           DiagnosticEngine &diag);

/// Runs a textual pipeline with verify-after-each-pass. Reports unknown
/// pass names and verifier failures through `diag`; returns false on any
/// error.
bool runPassPipeline(ModuleOp module, const std::string &pipeline,
                     DiagnosticEngine &diag);

} // namespace paralift::transforms
