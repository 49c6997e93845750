// Deterministic fault-injection failpoints for the compilation service.
//
// A failpoint is a named site compiled into a trust boundary — module
// parsing, pass execution, scheduler task dispatch, VM execution — that
// normally does nothing. When a spec is
// armed (via $PARALIFT_FAILPOINTS, paralift-opt --failpoints=, or
// configure() from a test) each evaluation of a matching site may inject
// a fault, reproducibly: triggering is a pure function of the spec's
// seed and the site's hit index, so a failing schedule replays exactly
// (per-site hit indices are assigned atomically, making the *set* of
// triggered hits deterministic even when thread interleaving is not).
//
// Spec grammar (sites separated by ';'):
//
//   site=mode[:seed,trigger] [; site=mode[:seed,trigger] ...]
//
//   mode     := throw | error | delay(MS) | partial-write
//   trigger  := N        fire on every Nth hit (1 = every hit; default)
//             | P        probability in [0,1) — must contain a '.'
//   seed     := integer mixed into the per-hit hash for probability mode
//
// Modes:
//   throw          evaluate() throws InjectedFault at the site — proves
//                  exception containment on whatever thread hit it.
//   error          the site takes its native failure path (read miss,
//                  short write, parse error, ...) as if the OS/input
//                  failed; returned as Action::Error.
//   delay(MS)      sleeps MS milliseconds, then proceeds normally —
//                  widens race windows and trips deadlines.
//   partial-write  IO sites truncate their payload but report success,
//                  so the corruption surfaces later on read-back;
//                  returned as Action::PartialWrite.
//
// Discipline mirrors trace:: — sites are compiled in everywhere and cost
// one relaxed atomic load when no spec is armed. Every injected fault
// bumps the `failpoint.triggered.<site>` counter in the MetricsRegistry,
// so CI can grep-assert that a soak run actually injected something.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>
#include <string_view>

namespace paralift::failpoint {

namespace detail {
extern std::atomic<bool> g_armed;
}

/// True when any failpoint spec is armed. A relaxed load — safe to call
/// on any hot path.
inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Thrown by `throw`-mode failpoints. Carries the site name so
/// containment layers can attribute the fault in diagnostics.
class InjectedFault : public std::runtime_error {
public:
  explicit InjectedFault(const std::string &site)
      : std::runtime_error("injected fault at failpoint '" + site + "'"),
        site_(site) {}
  const std::string &site() const { return site_; }

private:
  std::string site_;
};

/// What a triggered site should do. Throw-mode never reaches the caller
/// (evaluate() throws); delay-mode sleeps inside evaluate() and reports
/// None. Error and PartialWrite are translated by the call site into its
/// native failure path.
enum class Action {
  None,
  Error,
  PartialWrite,
};

/// Arms failpoints from a spec string (see grammar above). Replaces any
/// previous configuration; an empty spec disarms everything. Returns
/// false and fills *err (if given) on a malformed spec, leaving the
/// previous configuration in place.
bool configure(const std::string &spec, std::string *err = nullptr);

/// Disarms all failpoints and resets per-site hit counters.
void clearAll();

/// Slow path: consult the armed configuration for `site`. Call through
/// evaluate() so the disabled cost stays at one relaxed load.
Action evaluateSlow(std::string_view site);

/// Evaluate the named site. Disabled: one relaxed atomic load, no call.
inline Action evaluate(std::string_view site) {
  if (!armed())
    return Action::None;
  return evaluateSlow(site);
}

/// True if `site` evaluates to Action::Error (convenience for sites with
/// a single boolean failure path). Throw-mode still throws from inside.
inline bool shouldFail(std::string_view site) {
  return evaluate(site) == Action::Error;
}

} // namespace paralift::failpoint
