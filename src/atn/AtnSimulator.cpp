//===- atn/AtnSimulator.cpp - ANTLR-style adaptivePredict ----------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "atn/AtnSimulator.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

using namespace costar;
using namespace costar::atn;

//===----------------------------------------------------------------------===//
// CtxPool
//===----------------------------------------------------------------------===//

const Ctx *CtxPool::get(AtnStateId ReturnState, const Ctx *Parent) {
  uint64_t Hash = 0x9E3779B97F4A7C15ull * (ReturnState + 1) ^
                  (Parent ? Parent->Hash * 0xC2B2AE3D27D4EB4Full : 0);
  uint64_t IndexHash = adt::mix64(Hash);
  if (const uint32_t *Id = Index.find(IndexHash, [&](uint32_t Id) {
        return Arena[Id].ReturnState == ReturnState &&
               Arena[Id].Parent == Parent;
      }))
    return &Arena[*Id];
  Index.insert(IndexHash);
  Arena.push_back(Ctx{ReturnState, Parent, Hash,
                      Parent ? Parent->Depth + 1 : 1});
  return &Arena.back();
}

//===----------------------------------------------------------------------===//
// AtnCache
//===----------------------------------------------------------------------===//

namespace {

std::string serializeConfigs(std::vector<Config> &Configs) {
  std::sort(Configs.begin(), Configs.end(),
            [](const Config &A, const Config &B) {
              return std::tie(A.State, A.Alt, A.Stack) <
                     std::tie(B.State, B.Alt, B.Stack);
            });
  std::string Key;
  Key.reserve(Configs.size() * 16);
  for (const Config &C : Configs) {
    uint64_t Words[2] = {
        (static_cast<uint64_t>(C.State) << 32) | C.Alt,
        reinterpret_cast<uint64_t>(C.Stack),
    };
    Key.append(reinterpret_cast<const char *>(Words), sizeof(Words));
  }
  return Key;
}

} // namespace

uint32_t AtnCache::intern(std::vector<Config> Configs, Resolution Res,
                          ProductionId UniqueAlt) {
  std::string Key = serializeConfigs(Configs);
  auto It = Intern.find(Key);
  if (It != Intern.end())
    return It->second;
  DfaState St;
  St.Configs = std::move(Configs);
  St.Res = Res;
  St.UniqueAlt = UniqueAlt;
  std::set<ProductionId> Finals;
  for (const Config &C : St.Configs)
    if (C.State == FinalSentinel)
      Finals.insert(C.Alt);
  St.FinalAlts.assign(Finals.begin(), Finals.end());
  uint32_t Id = static_cast<uint32_t>(States.size());
  States.push_back(std::move(St));
  Intern.emplace(std::move(Key), Id);
  return Id;
}

std::optional<uint32_t> AtnCache::findStart(NonterminalId X) const {
  auto It = Starts.find(X);
  if (It == Starts.end())
    return std::nullopt;
  return It->second;
}

void AtnCache::recordStart(NonterminalId X, uint32_t Id) {
  Starts.emplace(X, Id);
}

std::optional<uint32_t> AtnCache::findTransition(uint32_t From,
                                                 TerminalId T) const {
  auto It = Trans.find((static_cast<uint64_t>(From) << 32) | T);
  if (It == Trans.end())
    return std::nullopt;
  return It->second;
}

void AtnCache::recordTransition(uint32_t From, TerminalId T, uint32_t To) {
  Trans.emplace((static_cast<uint64_t>(From) << 32) | T, To);
}

//===----------------------------------------------------------------------===//
// Closure, move, conflict analysis
//===----------------------------------------------------------------------===//

namespace {

/// Closure dedup set, the same bookkeeping as CoStar's closure: open
/// addressing with linear probing over a power-of-two slot array, and
/// clear() empties only the slots filled since the last clear, so one
/// slot array serves every closure on this thread and an insert
/// allocates nothing.
class ConfigSet {
  struct Slot {
    Config C;
    bool Used = false;
  };
  std::vector<Slot> Slots;
  std::vector<uint32_t> Filled;

  static size_t hash(const Config &C) {
    uint64_t H = (static_cast<uint64_t>(C.State) << 32) | C.Alt;
    return adt::mix64(H ^ reinterpret_cast<uint64_t>(C.Stack));
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Slot{});
    size_t Mask = Slots.size() - 1;
    for (uint32_t &I : Filled) {
      const Config &C = Old[I].C;
      I = static_cast<uint32_t>(hash(C) & Mask);
      while (Slots[I].Used)
        I = (I + 1) & Mask;
      Slots[I] = Slot{C, true};
    }
  }

public:
  void clear() {
    for (uint32_t I : Filled)
      Slots[I].Used = false;
    Filled.clear();
  }

  /// \returns true when \p C was not yet in the set.
  bool insert(const Config &C) {
    if ((Filled.size() + 1) * 10 >= Slots.size() * 7)
      grow();
    size_t Mask = Slots.size() - 1;
    size_t I = hash(C) & Mask;
    for (; Slots[I].Used; I = (I + 1) & Mask)
      if (Slots[I].C == C)
        return false;
    Slots[I] = Slot{C, true};
    Filled.push_back(static_cast<uint32_t>(I));
    return true;
  }
};

enum class SimMode { Sll, Ll };

/// Maximum context depth before closure assumes runaway recursion (only
/// reachable with left-recursive grammars, which the baseline — like
/// ANTLR without its rewrite step — does not support).
constexpr uint32_t MaxCtxDepth = 4096;

struct ClosureOut {
  std::vector<Config> Configs;
  std::string Error;
  bool ok() const { return Error.empty(); }
};

ClosureOut closure(const Atn &A, CtxPool &Pool, SimMode Mode,
                   std::vector<Config> Work) {
  ClosureOut Out;
  thread_local ConfigSet Seen;
  Seen.clear();
  while (!Work.empty()) {
    Config C = Work.back();
    Work.pop_back();
    if (!Seen.insert(C))
      continue;
    if (C.State == FinalSentinel) {
      Out.Configs.push_back(C);
      continue;
    }
    const Atn::State &St = A.state(C.State);
    if (St.IsRuleStop) {
      if (C.Stack) {
        Work.push_back(Config{C.Stack->ReturnState, C.Alt, C.Stack->Parent});
        continue;
      }
      if (Mode == SimMode::Ll) {
        // Empty stack in LL mode: the simulated parse completed.
        Work.push_back(Config{FinalSentinel, C.Alt, nullptr});
        continue;
      }
      // Wildcard stack: return to every static call site of the rule, and
      // keep a final config if end of input may follow it.
      if (A.canFinish(St.Rule))
        Work.push_back(Config{FinalSentinel, C.Alt, nullptr});
      for (AtnStateId F : A.followSites(St.Rule))
        Work.push_back(Config{F, C.Alt, nullptr});
      continue;
    }
    for (const AtnTransition &T : St.Trans) {
      switch (T.K) {
      case AtnTransition::Kind::Epsilon:
        Work.push_back(Config{T.Target, C.Alt, C.Stack});
        break;
      case AtnTransition::Kind::RuleRef: {
        if (C.Stack && C.Stack->Depth >= MaxCtxDepth) {
          Out.Error = "prediction context overflow (left-recursive "
                      "grammar?)";
          return Out;
        }
        const Ctx *Pushed = Pool.get(T.Follow, C.Stack);
        Work.push_back(Config{T.Target, C.Alt, Pushed});
        break;
      }
      case AtnTransition::Kind::Atom:
        Out.Configs.push_back(C);
        break;
      }
    }
  }
  return Out;
}

std::vector<Config> move(const Atn &A, const std::vector<Config> &Configs,
                         TerminalId Term) {
  std::vector<Config> Out;
  for (const Config &C : Configs) {
    if (C.State == FinalSentinel)
      continue;
    for (const AtnTransition &T : A.state(C.State).Trans)
      if (T.K == AtnTransition::Kind::Atom && T.Term == Term)
        Out.push_back(Config{T.Target, C.Alt, C.Stack});
  }
  return Out;
}

/// The original ALL(*) early-ambiguity check: configurations identical but
/// for their alternative are "conflicting"; when every alternative is
/// caught in conflicts with one common alt set, further lookahead cannot
/// separate them.
struct Analysis {
  AtnCache::Resolution Res = AtnCache::Resolution::Pending;
  ProductionId UniqueAlt = InvalidProductionId;
  ProductionId ConflictAlt = InvalidProductionId; ///< min alt of the set
};

Analysis analyze(const std::vector<Config> &Configs) {
  Analysis Out;
  if (Configs.empty()) {
    Out.Res = AtnCache::Resolution::Reject;
    return Out;
  }
  std::set<ProductionId> Viable;
  for (const Config &C : Configs)
    Viable.insert(C.Alt);
  if (Viable.size() == 1) {
    Out.Res = AtnCache::Resolution::Unique;
    Out.UniqueAlt = *Viable.begin();
    return Out;
  }
  // Group non-final configs by (state, context); collect alt sets of
  // groups with two or more alternatives.
  std::map<std::pair<AtnStateId, const Ctx *>, std::set<ProductionId>>
      Groups;
  for (const Config &C : Configs)
    if (C.State != FinalSentinel)
      Groups[{C.State, C.Stack}].insert(C.Alt);
  std::set<ProductionId> ConflictUnion;
  bool AllEqual = true;
  const std::set<ProductionId> *First = nullptr;
  for (const auto &[Key, Alts] : Groups) {
    if (Alts.size() < 2)
      continue;
    if (!First)
      First = &Alts;
    else if (*First != Alts)
      AllEqual = false;
    ConflictUnion.insert(Alts.begin(), Alts.end());
  }
  if (First && AllEqual && ConflictUnion == Viable) {
    Out.Res = AtnCache::Resolution::NeedLl;
    Out.ConflictAlt = *ConflictUnion.begin();
  }
  return Out;
}

std::vector<ProductionId> finalAlts(const std::vector<Config> &Configs) {
  std::set<ProductionId> Finals;
  for (const Config &C : Configs)
    if (C.State == FinalSentinel)
      Finals.insert(C.Alt);
  return std::vector<ProductionId>(Finals.begin(), Finals.end());
}

AtnPrediction resolveEof(const std::vector<ProductionId> &Finals,
                         bool LlMode) {
  if (Finals.empty())
    return AtnPrediction{AtnPrediction::Kind::Reject, InvalidProductionId,
                         {}};
  if (Finals.size() == 1)
    return AtnPrediction{AtnPrediction::Kind::Unique, Finals[0], {}};
  // Multiple complete parses: genuine ambiguity in LL mode, a possible
  // wildcard artifact in SLL mode (the caller fails over).
  return AtnPrediction{LlMode ? AtnPrediction::Kind::Ambig
                              : AtnPrediction::Kind::Error,
                       Finals[0], LlMode ? "" : "sll-eof-conflict"};
}

} // namespace

//===----------------------------------------------------------------------===//
// SLL prediction (cached)
//===----------------------------------------------------------------------===//

AtnPrediction AtnSimulator::sllPredict(NonterminalId X, const Word &Input,
                                       size_t Pos) {
  uint32_t Sid;
  if (std::optional<uint32_t> Start = Cache.findStart(X)) {
    ++Cache.Hits;
    Sid = *Start;
  } else {
    ++Cache.Misses;
    std::vector<Config> Init;
    for (const AtnTransition &T : A.state(A.ruleStart(X)).Trans)
      Init.push_back(Config{T.Target, T.Alt, nullptr});
    ClosureOut CO = closure(A, Cache.Pool, SimMode::Sll, std::move(Init));
    if (!CO.ok())
      return AtnPrediction{AtnPrediction::Kind::Error, InvalidProductionId,
                           CO.Error};
    Analysis An = analyze(CO.Configs);
    Sid = Cache.intern(std::move(CO.Configs), An.Res, An.UniqueAlt);
    Cache.recordStart(X, Sid);
  }

  size_t I = Pos;
  for (;;) {
    AtnCache::Resolution Res = Cache.state(Sid).Res;
    if (Res == AtnCache::Resolution::Reject)
      return AtnPrediction{AtnPrediction::Kind::Reject, InvalidProductionId,
                           {}};
    if (Res == AtnCache::Resolution::Unique)
      return AtnPrediction{AtnPrediction::Kind::Unique,
                           Cache.state(Sid).UniqueAlt,
                           {}};
    if (Res == AtnCache::Resolution::NeedLl)
      return AtnPrediction{AtnPrediction::Kind::Error, InvalidProductionId,
                           "sll-conflict"};
    if (I == Input.size())
      return resolveEof(Cache.state(Sid).FinalAlts, /*LlMode=*/false);

    TerminalId T = Input[I].Term;
    if (std::optional<uint32_t> Next = Cache.findTransition(Sid, T)) {
      ++Cache.Hits;
      Sid = *Next;
    } else {
      ++Cache.Misses;
      ClosureOut CO = closure(A, Cache.Pool, SimMode::Sll,
                              move(A, Cache.state(Sid).Configs, T));
      if (!CO.ok())
        return AtnPrediction{AtnPrediction::Kind::Error,
                             InvalidProductionId, CO.Error};
      Analysis An = analyze(CO.Configs);
      uint32_t NextId = Cache.intern(std::move(CO.Configs), An.Res,
                                     An.UniqueAlt);
      Cache.recordTransition(Sid, T, NextId);
      Sid = NextId;
    }
    ++I;
  }
}

//===----------------------------------------------------------------------===//
// LL prediction (full context, uncached)
//===----------------------------------------------------------------------===//

AtnPrediction AtnSimulator::llPredict(NonterminalId X,
                                      std::span<const Frame> MachineStack,
                                      const Word &Input, size_t Pos) {
  // Translate the parser's frame stack into a prediction context: each real
  // frame contributes the state just past its open nonterminal. The
  // synthetic bottom frame contributes the empty context ("returning past
  // it completes the parse").
  const Ctx *Context = nullptr;
  for (const Frame &F : MachineStack) {
    if (F.Prod == InvalidProductionId)
      continue;
    Context = Cache.Pool.get(
        A.chainState(F.Prod, static_cast<uint32_t>(F.Next) + 1), Context);
  }

  std::vector<Config> Init;
  for (const AtnTransition &T : A.state(A.ruleStart(X)).Trans)
    Init.push_back(Config{T.Target, T.Alt, Context});
  ClosureOut CO = closure(A, Cache.Pool, SimMode::Ll, std::move(Init));

  size_t I = Pos;
  for (;;) {
    if (!CO.ok())
      return AtnPrediction{AtnPrediction::Kind::Error, InvalidProductionId,
                           CO.Error};
    Analysis An = analyze(CO.Configs);
    if (An.Res == AtnCache::Resolution::Reject)
      return AtnPrediction{AtnPrediction::Kind::Reject, InvalidProductionId,
                           {}};
    if (An.Res == AtnCache::Resolution::Unique)
      return AtnPrediction{AtnPrediction::Kind::Unique, An.UniqueAlt, {}};
    if (An.Res == AtnCache::Resolution::NeedLl) {
      // In full-context mode a total conflict is an exact ambiguity: the
      // conflicting alternatives provably continue identically.
      return AtnPrediction{AtnPrediction::Kind::Ambig, An.ConflictAlt, {}};
    }
    if (I == Input.size())
      return resolveEof(finalAlts(CO.Configs), /*LlMode=*/true);
    CO = closure(A, Cache.Pool, SimMode::Ll,
                 move(A, CO.Configs, Input[I].Term));
    ++I;
  }
}

//===----------------------------------------------------------------------===//
// Two-stage adaptivePredict
//===----------------------------------------------------------------------===//

AtnPrediction AtnSimulator::adaptivePredict(
    NonterminalId X, std::span<const Frame> MachineStack, const Word &Input,
    size_t Pos, AtnSimStats *Stats) {
  if (Stats)
    ++Stats->Decisions;
  AtnPrediction Sll = sllPredict(X, Input, Pos);
  bool Failover =
      Sll.K == AtnPrediction::Kind::Error &&
      (Sll.Error == "sll-conflict" || Sll.Error == "sll-eof-conflict");
  if (!Failover)
    return Sll;
  if (Stats)
    ++Stats->SllFailovers;
  return llPredict(X, MachineStack, Input, Pos);
}
