// Low-overhead thread-safe trace recorder exporting Chrome trace_event
// JSON (load the file in Perfetto or chrome://tracing).
//
// Design:
//  - Compiled in everywhere, branch-cheap when disabled: every emit site
//    first reads one relaxed atomic bool; a disabled TraceSpan is two
//    loads and no stores.
//  - Per-thread buffers of fixed-size chunks. The owning thread is the
//    only writer: it fills an event slot, then publishes it with a
//    release store of the chunk count; the JSON writer reads counts with
//    acquire. No locks or CAS on the hot path, and TSan-clean.
//  - Events are PODs with inline char arrays; recording never allocates
//    except when a 4096-event chunk fills.
//
// Spans use RAII: `trace::TraceSpan span("pass:cse", "pm");` records one
// complete ('X') event at scope exit. annotate() attaches one key/value
// argument ("step" = "failed"). Async begin/end events ('b'/'e') tie
// cross-thread job lifetimes together by id; counter events ('C') chart
// a value over time.
//
// Enable programmatically (trace::enable(); paralift-opt's --trace-json),
// or by setting $PARALIFT_TRACE=FILE which also writes the JSON at process
// exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace paralift::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// True when recording. A relaxed load — safe to call on any hot path.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void enable();
void disable();

/// Microseconds since an arbitrary process-local epoch (steady clock).
uint64_t nowMicros();

/// Total events recorded so far across all threads (tests diff this
/// around a region to prove disabled mode records nothing).
size_t eventCount();

/// Names this thread's lane in the exported trace (emitted as thread
/// metadata). Cheap and idempotent; a no-op while disabled.
void setThreadName(std::string_view name);

/// One complete event covering a scope. Copies its name at construction
/// (names may be temporaries), stamps start/end times, and records at
/// destruction if tracing was on at construction.
class TraceSpan {
public:
  explicit TraceSpan(std::string_view name, std::string_view cat = "t");
  ~TraceSpan();

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Attach/overwrite the span's single key/value argument, rendered
  /// into the event's "args" object (e.g. annotate("step", "failed")).
  void annotate(std::string_view key, std::string_view value);

  bool active() const { return active_; }

private:
  uint64_t start_ = 0;
  bool active_ = false;
  char name_[64];
  char cat_[16];
  char argKey_[16];
  char argVal_[48];
};

/// Counter event: charts `value` on the named series at the current time.
void counterEvent(std::string_view name, uint64_t value);

/// Async begin/end pair: spans that start and finish on different
/// threads (a CompileJob's queue-to-done lifetime). Matched by
/// (name, id).
void asyncBegin(std::string_view name, uint64_t id,
                std::string_view cat = "job");
void asyncEnd(std::string_view name, uint64_t id,
              std::string_view cat = "job");

/// Writes everything recorded so far as Chrome trace_event JSON
/// ({"traceEvents": [...]}). Safe to call while threads still record —
/// it snapshots each buffer's published prefix. Returns false if the
/// file cannot be written.
bool writeJson(const std::string &path);

/// writeJson into a string (tests).
std::string json();

} // namespace paralift::trace
