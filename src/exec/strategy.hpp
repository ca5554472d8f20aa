// Execution strategies for the scheduler core.
//
// Every strategy produces bit-identical deterministic results — the choice
// only moves wall-clock between recording, decoding and closed-form
// fast-forwarding. Historically the engine exposed this as an accretion of
// booleans (Config::multilane, Config::analytic, the benches'
// --no-trace/--no-multilane/--no-analytic trio); the enum replaces that
// with one axis threaded uniformly through the library, the sweep daemon
// and every CLI:
//
//   live      every task runs the full kernel, no traces involved
//   recorded  record each unique address stream once into the trace store,
//             replay it (interpreted) for every later task sharing it
//   multilane fuse a stream group into one job: the leader runs live while
//             every follower tracks the event stream as a lane (interpreted)
//   analytic  multilane + compiled TracePlans: followers replay the plan
//             with the closed-form fast-forward tier
//   auto      let the scheduler pick (currently: multilane — on the
//             class-S paging grid it beats analytic on both cold wall and
//             peak RSS, whose plan compiles and plan memory cost more than
//             the fast-forward saves; EXPERIMENTS.md has the matrix)
#pragma once

#include <optional>
#include <string_view>

namespace lpomp::exec {

enum class Strategy { Live, Recorded, Multilane, Analytic, Auto };

constexpr const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Live: return "live";
    case Strategy::Recorded: return "recorded";
    case Strategy::Multilane: return "multilane";
    case Strategy::Analytic: return "analytic";
    case Strategy::Auto: return "auto";
  }
  return "auto";
}

/// Parses the CLI spelling ("live", "recorded", "multilane", "analytic",
/// "auto"); nullopt for anything else — callers print their own usage.
inline std::optional<Strategy> strategy_from_name(std::string_view name) {
  if (name == "live") return Strategy::Live;
  if (name == "recorded") return Strategy::Recorded;
  if (name == "multilane") return Strategy::Multilane;
  if (name == "analytic") return Strategy::Analytic;
  if (name == "auto") return Strategy::Auto;
  return std::nullopt;
}

/// Auto resolves to the scheduler's current best identity-preserving
/// schedule. Kept in one place so "what does auto mean" has one answer.
constexpr Strategy resolve_strategy(Strategy s) {
  return s == Strategy::Auto ? Strategy::Multilane : s;
}

}  // namespace lpomp::exec
