#include "transforms/pass_cache.h"

#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace paralift::transforms {

//===----------------------------------------------------------------------===//
// PassResultCache
//===----------------------------------------------------------------------===//

namespace {
// Registry mirrors of the private per-cache stats: every PassResultCache
// bumps the same process-wide "cache.*" counters, so one metrics
// snapshot covers all caches a process creates (env cache, per-session
// caches, tests). Resolved once; each bump is one relaxed atomic add on
// paths that already hold the cache mutex or do file I/O.
struct CacheCounters {
  metrics::Counter &hits;
  metrics::Counter &misses;
  metrics::Counter &stores;
  metrics::Counter &diskHits;
  metrics::Counter &passesExecuted;
  metrics::Counter &passesReplayed;
};

CacheCounters &cacheCounters() {
  auto &reg = metrics::MetricsRegistry::instance();
  static CacheCounters *c = new CacheCounters{
      reg.counter("cache.hits"),          reg.counter("cache.misses"),
      reg.counter("cache.stores"),        reg.counter("cache.disk_hits"),
      reg.counter("cache.passes_executed"),
      reg.counter("cache.passes_replayed")};
  return *c;
}
} // namespace

PassResultCache::PassResultCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty())
    return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    dir_.clear(); // unwritable directory: degrade to memory-only
}

void PassResultCache::disableDisk(const char *reason) {
  if (diskDisabled_.exchange(true, std::memory_order_relaxed))
    return;
  metrics::MetricsRegistry::instance().counter("cache.disk.disabled").add();
  std::fprintf(stderr,
               "paralift: warning: pass cache demoted to memory-only "
               "(%s); dir=%s\n",
               reason, dir_.c_str());
}

namespace {

/// Temp-file uniqueness across processes sharing one cache dir needs the
/// process id; _WIN32 has no ::getpid (only _getpid from <process.h>).
unsigned long getProcessId() {
#ifdef _WIN32
  return static_cast<unsigned long>(::_getpid());
#else
  return static_cast<unsigned long>(::getpid());
#endif
}

/// Build fingerprint mixed into every key: entries written by a build
/// with different pass semantics must read as misses, never replay.
/// PARALIFT_BUILD_STAMP is injected by CMake at configure time; the
/// translation-unit timestamp covers direct rebuilds of this file. (An
/// incremental rebuild that recompiles only a pass .cpp keeps the salt —
/// clear the cache dir when iterating on pass semantics without
/// reconfiguring.)
const std::string &buildSalt() {
  static const std::string salt =
#ifdef PARALIFT_BUILD_STAMP
      std::string(PARALIFT_BUILD_STAMP);
#else
      std::string(__DATE__ " " __TIME__);
#endif
  return salt;
}

} // namespace

Hash128 PassResultCache::keyHash(const Hash128 &input,
                                 const std::string &spec) {
  return combineHash(input, hashBytes(spec + "\n" + buildSalt()));
}

std::string PassResultCache::keyFile(const Hash128 &key) const {
  return dir_ + "/" + key.hex() + ".pir";
}

std::optional<PassResultCache::Entry>
PassResultCache::lookup(const Hash128 &input, const std::string &spec) {
  Hash128 key = keyHash(input, spec);
  // Memory under the lock, disk outside it, so --pm-threads workers
  // hitting memory entries never queue behind a file read.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      cacheCounters().hits.add();
      return it->second;
    }
  }
  std::optional<Entry> fromDisk;
  if (diskEnabled())
    fromDisk = loadFromDisk(key, input, spec);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!fromDisk) {
    ++stats_.misses;
    cacheCounters().misses.add();
    return std::nullopt;
  }
  ++stats_.hits;
  ++stats_.diskHits;
  cacheCounters().hits.add();
  cacheCounters().diskHits.add();
  entries_.emplace(key, *fromDisk);
  return fromDisk;
}

void PassResultCache::store(const Hash128 &input, const std::string &spec,
                            Entry entry) {
  Hash128 key = keyHash(input, spec);
  // Write the file outside the lock (the temp+rename protocol already
  // tolerates concurrent writers of one key; same key implies same
  // value for deterministic passes).
  if (diskEnabled() && !writeToDisk(key, input, spec, entry)) {
    // ENOSPC, unwritable dir, rename failure (or an injected fault):
    // retry once after a short backoff — transient pressure often
    // clears — then demote to memory-only. Cache trouble degrades
    // performance, never jobs.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (!writeToDisk(key, input, spec, entry))
      disableDisk("disk write failed twice");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  cacheCounters().stores.add();
  entries_[key] = std::move(entry);
}

// On-disk entry format (header lines, a separator, then the IR verbatim):
//   paralift-pass-cache v2
//   input <32 hex>                    (structural hash of the pass input)
//   spec <canonical pass spec>
//   output <32 hex>                   (structural hash of the result; the
//                                      next pass's input key)
//   text <32 hex>                     (hashBytes of the payload below)
//   funcs <32 hex>,<32 hex>,...       (module entries, except identity)
//   ---
//   <ir text>                         (empty for an identity entry)
// The header repeats the full key so a (vanishingly unlikely) filename
// hash collision, or a stale file from an incompatible version, reads as
// a miss instead of replaying wrong IR; the text hash catches truncated
// or corrupted payloads. An identity entry (the pass left its input
// unchanged; output equals input) has an empty payload and its text line
// hashes the empty string. v1 files (printed-text keying, no text line)
// fail the magic check and degrade to misses.
std::optional<PassResultCache::Entry>
PassResultCache::loadFromDisk(const Hash128 &key, const Hash128 &input,
                              const std::string &spec) {
  // Injected IO error (a real one would be an open/read failing with
  // errno set, which the stream API folds into "no entry"): retry once
  // after a short backoff, then demote to memory-only. Corrupt *content*
  // below is deliberately not a demotion — one bad file is a miss, not
  // evidence the disk is failing.
  if (failpoint::shouldFail("cache.disk.read")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (failpoint::shouldFail("cache.disk.read")) {
      disableDisk("disk read failed twice");
      return std::nullopt;
    }
  }
  std::ifstream in(keyFile(key), std::ios::binary);
  if (!in)
    return std::nullopt;
  trace::TraceSpan span("cache:disk-read", "cache");
  if (span.active())
    span.annotate("spec", spec);
  std::string magic, inputLine, specLine, outputLine, textLine, line;
  if (!std::getline(in, magic) || magic != "paralift-pass-cache v2")
    return std::nullopt;
  if (!std::getline(in, inputLine) || inputLine.rfind("input ", 0) != 0)
    return std::nullopt;
  if (!std::getline(in, specLine) || specLine.rfind("spec ", 0) != 0)
    return std::nullopt;
  if (!std::getline(in, outputLine) || outputLine.rfind("output ", 0) != 0)
    return std::nullopt;
  if (!std::getline(in, textLine) || textLine.rfind("text ", 0) != 0)
    return std::nullopt;
  if (!std::getline(in, line))
    return std::nullopt;
  Entry entry;
  if (line.rfind("funcs ", 0) == 0) {
    std::string list = line.substr(6);
    for (size_t pos = 0; pos < list.size();) {
      size_t comma = list.find(',', pos);
      std::string hex = list.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      auto h = Hash128::fromHex(hex);
      if (!h)
        return std::nullopt;
      entry.funcHashes.push_back(*h);
      if (comma == std::string::npos)
        break;
      pos = comma + 1;
    }
    if (!std::getline(in, line))
      return std::nullopt;
  }
  if (line != "---")
    return std::nullopt;
  auto storedInput = Hash128::fromHex(inputLine.substr(6));
  auto storedOutput = Hash128::fromHex(outputLine.substr(7));
  auto storedText = Hash128::fromHex(textLine.substr(5));
  if (!storedInput || !storedOutput || !storedText ||
      *storedInput != input || specLine.substr(5) != spec)
    return std::nullopt;
  std::ostringstream ir;
  ir << in.rdbuf();
  entry.ir = ir.str();
  entry.outputHash = *storedOutput;
  if (hashBytes(entry.ir) != *storedText)
    return std::nullopt; // truncated or corrupted payload
  return entry;
}

bool PassResultCache::writeToDisk(const Hash128 &key, const Hash128 &input,
                                  const std::string &spec,
                                  const Entry &entry) {
  trace::TraceSpan span("cache:disk-write", "cache");
  if (span.active())
    span.annotate("spec", spec);
  // error = simulated ENOSPC (caller retries then demotes);
  // partial-write = a record cut in half that reports success here and
  // surfaces on read-back as a broken header or a text-hash mismatch (a
  // miss).
  failpoint::Action inject = failpoint::evaluate("cache.disk.write");
  if (inject == failpoint::Action::Error)
    return false;
  std::string path = keyFile(key);
  // Unique temp name per process+thread+key (thread ids alone are not
  // unique across processes sharing one cache dir); rename is atomic on
  // POSIX, so concurrent writers of the same key both land a complete
  // file.
  std::ostringstream tmp;
  tmp << path << ".tmp." << getProcessId() << "."
      << std::this_thread::get_id();
  // Header and payload go out as one buffer, so partial-write tears the
  // record itself: an identity entry's empty payload has nothing to cut.
  std::ostringstream header;
  header << "paralift-pass-cache v2\n"
         << "input " << input.hex() << "\n"
         << "spec " << spec << "\n"
         << "output " << entry.outputHash.hex() << "\n"
         << "text " << hashBytes(entry.ir).hex() << "\n";
  if (!entry.funcHashes.empty()) {
    header << "funcs ";
    for (size_t i = 0; i < entry.funcHashes.size(); ++i)
      header << (i ? "," : "") << entry.funcHashes[i].hex();
    header << "\n";
  }
  header << "---\n";
  std::string record = header.str() + entry.ir;
  size_t bytes = record.size();
  if (inject == failpoint::Action::PartialWrite)
    bytes /= 2; // torn record, "successful" write
  {
    std::ofstream out(tmp.str(), std::ios::binary | std::ios::trunc);
    if (!out)
      return false;
    out.write(record.data(), static_cast<std::streamsize>(bytes));
    if (!out) {
      // Failed write (e.g. disk full): do not litter the shared dir.
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp.str(), ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp.str(), path, ec);
  if (ec) {
    std::filesystem::remove(tmp.str(), ec);
    return false;
  }
  return true;
}

PassResultCache::StatsSnapshot PassResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string PassResultCache::statsStr() const {
  StatsSnapshot s = stats();
  std::ostringstream os;
  os << "pass-cache: hits=" << s.hits << " misses=" << s.misses
     << " stores=" << s.stores << " disk-hits=" << s.diskHits
     << " passes-executed=" << s.passesExecuted
     << " passes-replayed=" << s.passesReplayed;
  return os.str();
}

void PassResultCache::resetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = StatsSnapshot{};
}

void PassResultCache::notePassExecuted() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.passesExecuted;
  cacheCounters().passesExecuted.add();
}

void PassResultCache::notePassReplayed() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.passesReplayed;
  cacheCounters().passesReplayed.add();
}

} // namespace paralift::transforms
