//===- atn/AtnSimulator.h - ANTLR-style adaptivePredict --------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline's prediction engine, following the original ALL(*) design
/// (Parr et al., OOPSLA 2014) that CoStar simplifies away from:
///
///  - configurations (ATN state, alternative, prediction-context stack)
///    with hash-consed, tail-shared contexts (the graph-structured-stack
///    role: Section 3.5 of the CoStar paper notes CoStar drops the GSS);
///  - early ambiguity detection via *conflicting configurations* — configs
///    identical but for their alternative (CoStar instead only reports
///    ambiguity at end of input);
///  - two-stage SLL-then-LL prediction with a per-decision DFA cache that
///    persists across inputs (the warm-up effect of Figure 11).
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ATN_ATNSIMULATOR_H
#define COSTAR_ATN_ATNSIMULATOR_H

#include "adt/HashIndex.h"
#include "atn/Atn.h"
#include "core/Frame.h"
#include "grammar/Token.h"

#include <deque>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace costar {
namespace atn {

//===----------------------------------------------------------------------===//
// Prediction contexts (hash-consed linked stacks)
//===----------------------------------------------------------------------===//

/// An immutable return-address stack node; nullptr is the empty stack
/// (wildcard context in SLL mode, "parse complete" in LL mode).
struct Ctx {
  AtnStateId ReturnState;
  const Ctx *Parent;
  uint64_t Hash;
  uint32_t Depth;
};

/// Hash-consing arena for contexts: structurally equal stacks share one
/// node, so config-set deduplication is pointer comparison. Owned by the
/// cache so cached configs stay valid across parses.
class CtxPool {
  std::deque<Ctx> Arena;
  /// Open-addressing index over Arena; ids are Arena positions.
  adt::IdIndex Index;

public:
  const Ctx *get(AtnStateId ReturnState, const Ctx *Parent);
  size_t size() const { return Arena.size(); }
};

//===----------------------------------------------------------------------===//
// Configurations and the DFA cache
//===----------------------------------------------------------------------===//

/// Sentinel "state" for configurations that completed an entire simulated
/// parse (survive only when prediction reaches end of input).
constexpr AtnStateId FinalSentinel = UINT32_MAX;

/// One ATN configuration.
struct Config {
  AtnStateId State = 0;
  ProductionId Alt = InvalidProductionId;
  const Ctx *Stack = nullptr;

  bool operator==(const Config &RHS) const {
    return State == RHS.State && Alt == RHS.Alt && Stack == RHS.Stack;
  }
};

/// The per-decision DFA cache plus the context pool backing its configs.
/// One AtnCache can serve many parses (ANTLR's cache reuse); resetting it
/// simulates a freshly instantiated parser (the paper's cold-cache
/// benchmark configuration).
class AtnCache {
public:
  enum class Resolution { Pending, Unique, Reject, NeedLl };

  struct DfaState {
    std::vector<Config> Configs;
    Resolution Res = Resolution::Pending;
    ProductionId UniqueAlt = InvalidProductionId;
    std::vector<ProductionId> FinalAlts;
  };

  CtxPool Pool;
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  /// Interns a closed, conflict-analyzed config set.
  uint32_t intern(std::vector<Config> Configs, Resolution Res,
                  ProductionId UniqueAlt);

  const DfaState &state(uint32_t Id) const { return States[Id]; }
  size_t numStates() const { return States.size(); }

  std::optional<uint32_t> findStart(NonterminalId X) const;
  void recordStart(NonterminalId X, uint32_t Id);
  std::optional<uint32_t> findTransition(uint32_t From, TerminalId T) const;
  void recordTransition(uint32_t From, TerminalId T, uint32_t To);

private:
  std::vector<DfaState> States;
  std::unordered_map<std::string, uint32_t> Intern;
  std::unordered_map<NonterminalId, uint32_t> Starts;
  std::unordered_map<uint64_t, uint32_t> Trans;
};

//===----------------------------------------------------------------------===//
// The simulator
//===----------------------------------------------------------------------===//

/// Outcome of one baseline prediction.
struct AtnPrediction {
  enum class Kind { Unique, Ambig, Reject, Error };
  Kind K = Kind::Reject;
  ProductionId Prod = InvalidProductionId;
  std::string Error;
};

/// Per-parse simulator statistics.
struct AtnSimStats {
  uint64_t Decisions = 0;
  uint64_t SllFailovers = 0;
};

/// The two-stage adaptivePredict engine over one Atn and one cache.
class AtnSimulator {
  const Atn &A;
  AtnCache &Cache;

public:
  AtnSimulator(const Atn &A, AtnCache &Cache) : A(A), Cache(Cache) {}

  /// Predicts a production for decision nonterminal \p X. \p MachineStack
  /// (the parser's frame stack, bottom to top) supplies the full context
  /// for LL mode.
  AtnPrediction adaptivePredict(NonterminalId X,
                                std::span<const Frame> MachineStack,
                                const Word &Input, size_t Pos,
                                AtnSimStats *Stats = nullptr);

  // Exposed for unit tests.
  AtnPrediction sllPredict(NonterminalId X, const Word &Input, size_t Pos);
  AtnPrediction llPredict(NonterminalId X,
                          std::span<const Frame> MachineStack,
                          const Word &Input, size_t Pos);
};

} // namespace atn
} // namespace costar

#endif // COSTAR_ATN_ATNSIMULATOR_H
