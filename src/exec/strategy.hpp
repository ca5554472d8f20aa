// Execution strategies for the scheduler core.
//
// Every strategy produces bit-identical deterministic results — the choice
// only moves wall-clock between running kernels and tracking their event
// streams as lanes. One axis threaded uniformly through the library, the
// sweep daemon and every CLI:
//
//   live      every task runs the full kernel on its own
//   multilane fuse a stream group into one job: the leader runs live while
//             every follower tracks the event stream as a lane, and points
//             whose paging policy is provably equivalent fold onto one
//   auto      let the scheduler pick (currently: multilane — on the
//             class-S paging grid its folds cut cold wall and peak RSS;
//             EXPERIMENTS.md has the matrix)
//
// The trace library's record/replay and compiled-plan tiers are diagnostics
// (sweep_all --replay-check, trace_tools), not scheduler strategies.
#pragma once

#include <optional>
#include <string_view>

namespace lpomp::exec {

enum class Strategy { Live, Multilane, Auto };

/// The valid spellings, as printed by every parser that rejects a name.
inline constexpr const char* kStrategyNames = "live, multilane, auto";

constexpr const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Live: return "live";
    case Strategy::Multilane: return "multilane";
    case Strategy::Auto: return "auto";
  }
  return "auto";
}

/// Parses the CLI spelling ("live", "multilane", "auto"); nullopt for
/// anything else — callers print their own usage naming kStrategyNames.
/// Kept as the one parser perfbench and the wire format share.
inline std::optional<Strategy> strategy_from_name(std::string_view name) {
  if (name == "live") return Strategy::Live;
  if (name == "multilane") return Strategy::Multilane;
  if (name == "auto") return Strategy::Auto;
  return std::nullopt;
}

/// Auto resolves to the scheduler's current best identity-preserving
/// schedule. Kept in one place so "what does auto mean" has one answer.
constexpr Strategy resolve_strategy(Strategy s) {
  return s == Strategy::Auto ? Strategy::Multilane : s;
}

}  // namespace lpomp::exec
