// Execution strategies for the scheduler core.
//
// Every strategy produces bit-identical deterministic results — the choice
// only moves wall-clock between running kernels, copying provably equal
// points and tracking event streams as lanes. One axis threaded uniformly
// through the library, the sweep daemon and every CLI:
//
//   live  the reference: every task runs the full kernel on its own; no
//         fold, no fusion
//   auto  the default, one schedule that decides from the grid itself:
//         admission folds points whose paging policy is provably
//         equivalent onto one run (paging::canonical_policy), a stream
//         group still holding at least Scheduler::kFuseWidth unique points
//         runs as one fused job (a live leader plus lanes), and every other
//         point runs on its own exactly as under live (DESIGN.md §8)
//
// The trace library's record/replay and compiled-plan tiers are diagnostics
// (sweep_all --replay-check, trace_tools), not scheduler strategies.
#pragma once

#include <optional>
#include <string_view>

namespace lpomp::exec {

enum class Strategy { Live, Auto };

/// The valid spellings, as printed by every parser that rejects a name.
inline constexpr const char* kStrategyNames = "live, auto";

constexpr const char* strategy_name(Strategy s) {
  return s == Strategy::Live ? "live" : "auto";
}

/// Parses the CLI spelling ("live", "auto"); nullopt for anything else —
/// callers print their own usage naming kStrategyNames. Kept as the one
/// parser perfbench and the wire format share.
inline std::optional<Strategy> strategy_from_name(std::string_view name) {
  if (name == "live") return Strategy::Live;
  if (name == "auto") return Strategy::Auto;
  return std::nullopt;
}

/// Every strategy is its own schedule now; kept because perfbench resolves
/// its --strategy= through it.
constexpr Strategy resolve_strategy(Strategy s) { return s; }

}  // namespace lpomp::exec
