// Persistent pass-result cache: maps (canonical pass spec, structural
// hash of the input IR) to the printed IR the pass produced, so
// re-compiling an unchanged function through an unchanged pipeline prefix
// replays cached IR instead of re-running passes.
//
// Keying: lookups are keyed on ir::hashOp — a direct structural hash
// (one walk over op kinds, operand numbering, attrs, types, regions) —
// never on a hash of printed text, so keying a function costs no string
// materialization. Entries carry the structural hash of their *output*
// (Entry::outputHash), which becomes the next pass's input key; replayed
// and executed passes therefore advance identical hash chains. Two
// pipelines sharing a prefix share every prefix entry, and an ablation
// sweep whose stages diverge only at pass k re-runs from pass k onwards,
// so recompiling costs O(changed work). Byte hashing (hashBytes) survives
// only where text is the object itself: the spec+salt key component and
// the on-disk payload integrity check (replay splices stored text, so the
// stored text is what must be intact).
//
// Granularity: function passes cache one entry per function (editing one
// function only misses its own entries); module passes (inline, and any
// repeat wrapping one) cache whole-module entries under a "module:"
// spec prefix so the two key spaces cannot collide.
//
// With a directory the cache is persistent: each entry is one file named
// by the key hash, written atomically (temp + rename) so concurrent
// compilers sharing a --cache-dir never observe torn entries. Entries
// embed their full key and are re-verified on load; mismatches and
// corrupt files degrade to a miss. Nothing is ever evicted: the store
// grows until its user deletes the directory. All operations are
// thread-safe (the PassManager queries the cache from --pm-threads
// workers); the cache is a plain memo, so it never makes one caller wait
// for another's computation of the same key.
#pragma once

#include "ir/hasher.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace paralift::transforms {

// The hashing primitives live with the IR they hash (ir/hasher.h); the
// transform layer keeps its historical spellings.
using ir::combineHash;
using ir::Hash128;
using ir::hashBytes;

//===----------------------------------------------------------------------===//
// PassResultCache
//===----------------------------------------------------------------------===//

class PassResultCache {
public:
  /// In-memory cache (one process; useful for ablation sweeps).
  PassResultCache() = default;
  /// Persistent cache rooted at `dir` (created if absent). An empty dir
  /// string degrades to memory-only.
  explicit PassResultCache(std::string dir);

  PassResultCache(const PassResultCache &) = delete;
  PassResultCache &operator=(const PassResultCache &) = delete;

  /// One pass result. An *identity* entry has no IR text: the pass left
  /// its input unchanged (outputHash equals the input key), so replay
  /// has nothing to splice or parse, and leaves a lazily replayed
  /// function's pending text alone — the hash chain is already right.
  struct Entry {
    std::string ir;     ///< printed IR produced by the pass; empty = identity
    /// Structural hash (ir::hashOp) of the produced IR; the next pass's
    /// input key. Splicing `ir` back in reproduces it exactly (the
    /// print/parse round trip preserves structure), so replayed and
    /// executed passes advance identical hash chains.
    Hash128 outputHash;
    /// For module-granularity entries: the per-function structural
    /// hashes of the result, in body order, so replay re-keys the hash
    /// chain without re-hashing each function. Empty for function
    /// entries.
    std::vector<Hash128> funcHashes;

    /// A printed function or module is never empty, so empty text is the
    /// identity marker.
    bool identity() const { return ir.empty(); }
  };

  /// Finds the result of running `spec` on IR whose structural hash is
  /// `input`: memory first, then disk (a disk hit is promoted into
  /// memory). Counts a hit or a miss. Two callers missing on one key at
  /// the same moment both run the pass and both store; the pass is
  /// deterministic, so the second store rewrites the same value.
  std::optional<Entry> lookup(const Hash128 &input, const std::string &spec);

  /// Records a pass result. Overwrites any existing entry for the key
  /// (same key implies same value for deterministic passes).
  void store(const Hash128 &input, const std::string &spec, Entry entry);
  void store(const Hash128 &input, const std::string &spec, std::string ir,
             const Hash128 &outputHash) {
    store(input, spec, Entry{std::move(ir), outputHash, {}});
  }

  const std::string &directory() const { return dir_; }

  /// True once disk trouble (repeated read/write failure, e.g. ENOSPC)
  /// has demoted this cache to memory-only for the rest of its life.
  /// Demotion is a performance event, never a job failure: compiles
  /// simply stop replaying/persisting across processes. Counted once in
  /// the "cache.disk.disabled" metric and warned to stderr.
  bool diskDemoted() const {
    return diskDisabled_.load(std::memory_order_relaxed);
  }

  // Statistics ---------------------------------------------------------------

  struct StatsSnapshot {
    uint64_t hits = 0;      ///< per-entry lookups served (memory or disk)
    uint64_t misses = 0;    ///< per-entry lookups that found nothing
    uint64_t stores = 0;    ///< entries recorded
    uint64_t diskHits = 0;  ///< subset of hits served from disk
    uint64_t passesExecuted = 0; ///< pass runs that executed transform code
    uint64_t passesReplayed = 0; ///< pass runs fully satisfied from cache
  };
  StatsSnapshot stats() const;
  /// One line, e.g. "pass-cache: hits=12 misses=3 stores=3 disk-hits=0
  /// passes-executed=3 passes-replayed=12".
  std::string statsStr() const;
  void resetStats();

  /// Bumped by the PassManager: a pass run that transformed IR vs one
  /// replayed entirely from cache.
  void notePassExecuted();
  void notePassReplayed();

private:
  std::string keyFile(const Hash128 &key) const;
  static Hash128 keyHash(const Hash128 &input, const std::string &spec);
  /// Disk is usable: a directory was configured and no demotion yet.
  bool diskEnabled() const { return !dir_.empty() && !diskDemoted(); }
  /// One-shot demotion to memory-only (idempotent, thread-safe).
  void disableDisk(const char *reason);
  std::optional<Entry> loadFromDisk(const Hash128 &key, const Hash128 &input,
                                    const std::string &spec);
  /// False when the write failed.
  bool writeToDisk(const Hash128 &key, const Hash128 &input,
                   const std::string &spec, const Entry &entry);

  struct Hash128Hasher {
    size_t operator()(const Hash128 &h) const {
      return static_cast<size_t>(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ull));
    }
  };

  std::string dir_;
  mutable std::mutex mutex_;
  std::unordered_map<Hash128, Entry, Hash128Hasher> entries_;
  StatsSnapshot stats_;
  std::atomic<bool> diskDisabled_{false};
};

} // namespace paralift::transforms
