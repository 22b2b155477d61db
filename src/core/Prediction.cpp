//===- core/Prediction.cpp - ALL(*) adaptivePredict ------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Prediction.h"

#include "obs/Trace.h"

#include <algorithm>
#include <deque>

using namespace costar;

/// Serialization sentinel terminating a frame list. Distinct from
/// InvalidProductionId (the machine's bottom frame id), which may appear in
/// LL stacks.
static constexpr uint32_t SerialEnd = 0xFFFFFFFEu;

void costar::serializeSubparser(const Subparser &Sp,
                                std::vector<uint32_t> &Out) {
  Out.push_back(Sp.Prediction);
  for (const SimStackNode *N = Sp.Stack.get(); N; N = N->Tail.get()) {
    // Stack nodes are hash-consed heap/arena objects with no layout
    // correlation, so the next link is a guaranteed cache miss on deep
    // stacks; start its load while this frame serializes.
    adt::prefetchRead(N->Tail.get());
    assert(N->F.Prod != SerialEnd && "production id collides with sentinel");
    Out.push_back(N->F.Prod);
    Out.push_back(N->F.Pos);
  }
  Out.push_back(SerialEnd);
}

int costar::subparserCompare(const Subparser &A, const Subparser &B) {
  if (A.Prediction != B.Prediction)
    return A.Prediction < B.Prediction ? -1 : 1;
  for (const SimStackNode *X = A.Stack.get(), *Y = B.Stack.get(); X != Y;
       X = X->Tail.get(), Y = Y->Tail.get()) {
    // A stack's end compares as the SerialEnd word it serializes to; no
    // production id equals it, so the walk never reads past an end.
    uint32_t XProd = X ? X->F.Prod : SerialEnd;
    uint32_t YProd = Y ? Y->F.Prod : SerialEnd;
    if (XProd != YProd)
      return XProd < YProd ? -1 : 1;
    if (X->F.Pos != Y->F.Pos)
      return X->F.Pos < Y->F.Pos ? -1 : 1;
    adt::prefetchRead(X->Tail.get());
    adt::prefetchRead(Y->Tail.get());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// PredictionTables
//===----------------------------------------------------------------------===//

PredictionTables::PredictionTables(const Grammar &Grammar,
                                   const GrammarAnalysis &A)
    : G(Grammar) {
  uint32_t N = G.numNonterminals();
  ReturnTargets.assign(N, {});
  CanFinishNt.assign(N, false);
  for (NonterminalId X = 0; X < N; ++X)
    CanFinishNt[X] = A.followEnd(X);

  // Direct return targets: for each occurrence of X at (r, p), an
  // empty-stack subparser finishing a rule for X resumes at (r, p + 1) when
  // that position is not at the end of r. Occurrences at the end of r are
  // "union edges": finishing X there immediately finishes r, so X inherits
  // the return targets of r's left-hand side. We resolve the union edges by
  // fixpoint iteration (the occurrence graph may be cyclic).
  std::vector<std::vector<NonterminalId>> UnionEdges(N);
  auto AddTarget = [&](NonterminalId X, SimFrame F) {
    std::vector<SimFrame> &Targets = ReturnTargets[X];
    for (const SimFrame &Existing : Targets)
      if (Existing.Prod == F.Prod && Existing.Pos == F.Pos)
        return false;
    Targets.push_back(F);
    return true;
  };

  for (ProductionId Id = 0; Id < G.numProductions(); ++Id) {
    const Production &P = G.production(Id);
    for (uint32_t Pos = 0; Pos < P.Rhs.size(); ++Pos) {
      if (!P.Rhs[Pos].isNonterminal())
        continue;
      NonterminalId X = P.Rhs[Pos].nonterminalId();
      if (Pos + 1 < P.Rhs.size())
        AddTarget(X, SimFrame{Id, &P.Rhs, Pos + 1});
      else
        UnionEdges[X].push_back(P.Lhs);
    }
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NonterminalId X = 0; X < N; ++X) {
      for (NonterminalId Y : UnionEdges[X]) {
        // Copy: AddTarget may reallocate ReturnTargets[X] while we read
        // ReturnTargets[Y] when X == Y.
        std::vector<SimFrame> FromY = ReturnTargets[Y];
        for (const SimFrame &F : FromY)
          Changed |= AddTarget(X, F);
        if (CanFinishNt[Y] && !CanFinishNt[X]) {
          CanFinishNt[X] = true;
          Changed = true;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Closure and move
//===----------------------------------------------------------------------===//

namespace {

enum class SimMode { LL, SLL };

struct ClosureOut {
  std::vector<Subparser> Configs;
  std::optional<ParseError> Err;
};

/// Closure dedup set on the hash-consed (prediction, stack) identity: the
/// hash is O(1) to read off the stack head (subparserHash), and the
/// structural equality check short-circuits on shared tails, so a probe
/// never serializes the whole stack. Open addressing with linear probing
/// over a power-of-two slot array, as in adt/HashIndex.h; clear() empties
/// only the slots the round filled, so one slot array serves every
/// closure round of a prediction and an insert allocates nothing. Slots
/// hold owning stack handles: under the SharedPtr allocation backend a
/// node could otherwise be freed mid-round and its address reused, and
/// the pointer-equality shortcut would then report a false duplicate.
class SeenTable {
  struct Slot {
    uint64_t Hash = 0;
    SimStackPtr Stack;
    ProductionId Prediction = InvalidProductionId;
    bool Used = false;
  };
  std::vector<Slot> Slots;
  std::vector<uint32_t> Filled;

  uint32_t probe(uint64_t Hash, ProductionId Prediction,
                 const SimStackNode *Stack) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = static_cast<size_t>(Hash) & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (!S.Used || (S.Hash == Hash && S.Prediction == Prediction &&
                      simStackEquals(S.Stack.get(), Stack)))
        return static_cast<uint32_t>(I);
    }
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Slot{});
    size_t Mask = Slots.size() - 1;
    for (uint32_t &I : Filled) {
      Slot &S = Old[I];
      I = static_cast<uint32_t>(S.Hash & Mask);
      while (Slots[I].Used)
        I = (I + 1) & Mask;
      Slots[I] = std::move(S);
    }
  }

public:
  void clear() {
    for (uint32_t I : Filled)
      Slots[I] = Slot{};
    Filled.clear();
  }

  /// \returns true when \p Sp's identity was not yet in the set.
  bool insert(const Subparser &Sp) {
    if ((Filled.size() + 1) * 10 >= Slots.size() * 7)
      grow();
    uint64_t Hash = subparserHash(Sp);
    uint32_t I = probe(Hash, Sp.Prediction, Sp.Stack.get());
    Slot &S = Slots[I];
    if (S.Used)
      return false;
    S = Slot{Hash, Sp.Stack, Sp.Prediction, true};
    Filled.push_back(I);
    return true;
  }
};

/// Shared subparser simulation engine for both prediction modes. The
/// worklist and the dedup set are members so their buffers are reused
/// across every closure round of one prediction call instead of being
/// reallocated per simulated token.
class Simulator {
  const Grammar &G;
  const PredictionTables *Tables; // non-null iff Mode == SLL
  SimMode Mode;
  robust::BudgetTracker *Budget; // may be null (no budget checking)

  std::vector<Subparser> Work;
  SeenTable Seen;

public:
  Simulator(const Grammar &G, const PredictionTables *Tables, SimMode Mode,
            robust::BudgetTracker *Budget = nullptr)
      : G(G), Tables(Tables), Mode(Mode), Budget(Budget) {
    assert((Mode == SimMode::SLL) == (Tables != nullptr) &&
           "SLL simulation requires prediction tables");
  }

  /// Clears the worklist and exposes it for initial seeding; follow with
  /// closure().
  std::vector<Subparser> &seed() {
    Work.clear();
    return Work;
  }

  /// Consumes terminal \p T, seeding the worklist for the next closure():
  /// stable subparsers whose head matches advance (resetting their visited
  /// sets); all others, including finals, die.
  void moveInto(const std::vector<Subparser> &Configs, TerminalId T) {
    Work.clear();
    for (const Subparser &Sp : Configs) {
      if (!Sp.Stack)
        continue;
      const SimFrame &Top = Sp.Stack->F;
      Symbol Head = Top.headSymbol();
      assert(Head.isTerminal() && "move on a non-stable subparser");
      if (Head.terminalId() != T)
        continue;
      SimFrame Advanced = Top;
      Advanced.Pos += 1;
      Work.push_back(Subparser{Sp.Prediction,
                               makeSimStack(Advanced, Sp.Stack->Tail),
                               VisitedSet()});
    }
  }

  /// Advances every seeded subparser until it is stable (head symbol is
  /// a terminal) or final (stack empty), forking at nonterminals and
  /// performing returns at exhausted frames. Detects left recursion via the
  /// per-subparser visited sets. Drains the worklist seeded by seed() or
  /// moveInto().
  ClosureOut closure() {
    ClosureOut Out;
    Seen.clear();
    while (!Work.empty()) {
      // Closure rounds, not machine steps, dominate worst-case prediction
      // work, so the budget is ticked here too.
      if (Budget) {
        if (std::optional<robust::BudgetReason> R = Budget->tick()) {
          Out.Err = ParseError::budgetExceeded(*R);
          return Out;
        }
      }
      Subparser Sp = std::move(Work.back());
      Work.pop_back();
      if (!Seen.insert(Sp))
        continue;

      if (!Sp.Stack) {
        // Emitted configs' visited sets are never consulted again (the
        // next simulation step is a move, which resets them), so drop
        // them here to keep cached DFA states lean.
        Sp.Visited = VisitedSet();
        Out.Configs.push_back(std::move(Sp));
        continue;
      }
      const SimFrame &Top = Sp.Stack->F;
      if (Top.done()) {
        if (Top.Prod == InvalidProductionId) {
          // The simulated machine's bottom frame is exhausted: the whole
          // parse completed (LL mode only; SLL stacks never hold it).
          assert(Mode == SimMode::LL && !Sp.Stack->Tail &&
                 "bottom frame must be the lowest LL sim frame");
          Out.Configs.push_back(
              Subparser{Sp.Prediction, nullptr, std::move(Sp.Visited)});
          continue;
        }
        NonterminalId Lhs = G.production(Top.Prod).Lhs;
        VisitedSet PoppedVisited = Sp.Visited.erase(Lhs);
        if (Sp.Stack->Tail) {
          // Ordinary return: advance the caller past the open nonterminal.
          SimFrame Caller = Sp.Stack->Tail->F;
          assert(!Caller.done() && Caller.headSymbol().isNonterminal() &&
                 "caller frame has no open nonterminal");
          Caller.Pos += 1;
          Work.push_back(
              Subparser{Sp.Prediction,
                        makeSimStack(Caller, Sp.Stack->Tail->Tail),
                        std::move(PoppedVisited)});
          continue;
        }
        // Empty-stack return: simulate a return to the statically computed
        // stable caller frames (the SLL overapproximation, Section 3.5).
        assert(Mode == SimMode::SLL &&
               "LL subparser stack emptied below the bottom frame");
        if (Tables->canFinish(Lhs))
          Work.push_back(Subparser{Sp.Prediction, nullptr, PoppedVisited});
        for (const SimFrame &Target : Tables->returnTargets(Lhs))
          Work.push_back(Subparser{Sp.Prediction,
                                   makeSimStack(Target, nullptr),
                                   PoppedVisited});
        continue;
      }

      Symbol Head = Top.headSymbol();
      if (Head.isTerminal()) {
        Sp.Visited = VisitedSet();
        Out.Configs.push_back(std::move(Sp));
        continue;
      }
      NonterminalId Y = Head.nonterminalId();
      if (Sp.Visited.contains(Y)) {
        Out.Err = ParseError::leftRecursive(Y);
        return Out;
      }
      VisitedSet PushedVisited = Sp.Visited.insert(Y);
      for (ProductionId P : G.productionsFor(Y))
        Work.push_back(
            Subparser{Sp.Prediction,
                      makeSimStack(SimFrame{P, &G.production(P).Rhs, 0},
                                   Sp.Stack),
                      PushedVisited});
    }
    return Out;
  }
};

/// Distinct predictions carried by \p Configs, ascending.
std::vector<ProductionId>
distinctPredictions(const std::vector<Subparser> &Configs) {
  std::vector<ProductionId> Preds;
  for (const Subparser &Sp : Configs)
    Preds.push_back(Sp.Prediction);
  std::sort(Preds.begin(), Preds.end());
  Preds.erase(std::unique(Preds.begin(), Preds.end()), Preds.end());
  return Preds;
}

/// Distinct predictions of final (empty-stack) configs, ascending.
std::vector<ProductionId>
distinctFinalPredictions(const std::vector<Subparser> &Configs) {
  std::vector<ProductionId> Preds;
  for (const Subparser &Sp : Configs)
    if (!Sp.Stack)
      Preds.push_back(Sp.Prediction);
  std::sort(Preds.begin(), Preds.end());
  Preds.erase(std::unique(Preds.begin(), Preds.end()), Preds.end());
  return Preds;
}

/// Shared end-of-input resolution: only subparsers that completed an entire
/// simulated parse survive; ties of two or more predictions mean ambiguity.
PredictionResult resolveAtEndOfInput(const std::vector<ProductionId> &Finals) {
  if (Finals.empty())
    return PredictionResult::reject();
  if (Finals.size() == 1)
    return PredictionResult::unique(Finals[0]);
  return PredictionResult::ambig(Finals[0]);
}

} // namespace

//===----------------------------------------------------------------------===//
// LL prediction
//===----------------------------------------------------------------------===//

PredictionResult costar::llPredict(const Grammar &G, NonterminalId X,
                                   std::span<const Frame> MachineStack,
                                   const VisitedSet &Visited,
                                   const Word &Input, size_t Pos,
                                   robust::BudgetTracker *Budget) {
  assert(!MachineStack.empty() && "LL prediction with an empty stack");
  assert(MachineStack.back().headSymbol() == Symbol::nonterminal(X) &&
         "decision nonterminal is not the top stack symbol");

  // Mirror the machine's suffix stack, bottom to top; the decision
  // nonterminal stays open in the top frame.
  SimStackPtr Base;
  for (const Frame &F : MachineStack)
    Base = makeSimStack(SimFrame{F.Prod, F.Syms, static_cast<uint32_t>(F.Next)},
                        Base);

  Simulator Sim(G, nullptr, SimMode::LL, Budget);
  VisitedSet InitVisited = Visited.insert(X);
  std::vector<Subparser> &Init = Sim.seed();
  for (ProductionId P : G.productionsFor(X))
    Init.push_back(
        Subparser{P, makeSimStack(SimFrame{P, &G.production(P).Rhs, 0}, Base),
                  InitVisited});

  ClosureOut CR = Sim.closure();
  size_t I = Pos;
  for (;;) {
    if (CR.Err)
      return PredictionResult::error(*CR.Err);
    if (std::optional<robust::FaultSite> F = robust::takePendingFault())
      return PredictionResult::error(ParseError::faultInjected(*F));
    if (CR.Configs.empty())
      return PredictionResult::reject();
    std::vector<ProductionId> Preds = distinctPredictions(CR.Configs);
    if (Preds.size() == 1)
      return PredictionResult::unique(Preds[0]);
    if (I == Input.size())
      return resolveAtEndOfInput(distinctFinalPredictions(CR.Configs));
    Sim.moveInto(CR.Configs, Input[I].Term);
    CR = Sim.closure();
    ++I;
  }
}

//===----------------------------------------------------------------------===//
// SLL cache
//===----------------------------------------------------------------------===//

namespace {

/// Deep-copies an epoch-arena sim stack into owning heap nodes so the
/// cached DFA configs of a cache that outlives the parse epoch survive the
/// parse that built them. A parse-local cache (SllCache::OutlivesEpoch
/// false) never calls this: it dies before the arena rewinds. The memo
/// preserves the tail sharing closure produced (configs of one state
/// routinely share stack suffixes); it is a flat vector scanned
/// newest-first because the sharing point is almost always the most
/// recently detached suffix.
/// Nodes the active arena does not own anchor the recursion: they live in
/// earlier states of this same cache (detached by a previous intern, or
/// borrowed from one by makeSimStack), and caches are exchanged wholesale
/// (publish/adopt replaces, never merges per-state), so an anchor can
/// never outlive the state that owns it. Deliberately bypasses
/// makeSimStack: detaching is a lifetime operation, so it bumps no
/// allocation counters and hits no fault-injection site — cached-state
/// contents and stats stay identical across allocation backends.
SimStackPtr detachSimStack(
    const SimStackPtr &S, adt::Arena *A,
    const std::shared_ptr<std::deque<SimStackNode>> &Block,
    std::vector<std::pair<const SimStackNode *, SimStackPtr>> &Memo) {
  if (!S || !A->owns(S.get()))
    return S;
  for (auto It = Memo.rbegin(); It != Memo.rend(); ++It)
    if (It->first == S.get())
      return It->second;
  SimStackPtr Tail = detachSimStack(S->Tail, A, Block, Memo);
  // All detached nodes of one state share a single heap block (a deque, so
  // addresses are push-stable) behind one control block; handles alias
  // into it. One allocation per block chunk instead of per node.
  //
  // A tail that was itself arena-owned has just been detached into this
  // same block — store it as a *non-owning* alias: an owning handle held
  // inside the block it owns would be a shared_ptr cycle (the block could
  // never die). The block stays alive through the owning top-of-stack
  // handles the interned configs hold; tails from earlier blocks (already
  // heap-detached) keep their owning handles, which is acyclic because
  // references only ever point at older blocks.
  if (S->Tail && A->owns(S->Tail.get()))
    Tail = adt::arenaRef(Tail.get());
  Block->push_back(SimStackNode(S->F, std::move(Tail)));
  SimStackPtr Owned(Block, &Block->back());
  Memo.emplace_back(S.get(), Owned);
  return Owned;
}

} // namespace

uint32_t SllCache::intern(std::vector<Subparser> Configs) {
  // Canonicalize: sort the configs by subparserCompare, ties by position.
  // Both backends share this order bit for bit, so state ids and contents
  // never depend on the backend. The Hashed backend then looks the state
  // up by a hash of the per-config stack hashes (O(1) each) and compares a
  // candidate's configs in place, so no key is built or stored; the
  // AvlPaperFaithful backend keeps the paper's key, the sorted configs'
  // concatenated serializeSubparser words. The buffers are reused across
  // calls on this thread: a cold parse interns a state on every miss.
  thread_local std::vector<uint32_t> Order;
  thread_local std::vector<uint32_t> FlatKey;
  Order.resize(Configs.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    int C = subparserCompare(Configs[A], Configs[B]);
    return C != 0 ? C < 0 : A < B;
  });

  uint64_t StateHash = 0;
  if (Backend == CacheBackend::Hashed) {
    robust::injectPoint(robust::FaultSite::HashedCacheProbe);
    StateHash = 0x243F6A8885A308D3ull;
    for (uint32_t I : Order)
      StateHash = adt::mix64(StateHash ^ subparserHash(Configs[I]));
    auto SameState = [&](uint32_t Id) {
      const std::vector<Subparser> &Known = States[Id].Configs;
      if (Known.size() != Order.size())
        return false;
      for (size_t I = 0; I < Known.size(); ++I)
        if (!subparserEquals(Known[I], Configs[Order[I]]))
          return false;
      return true;
    };
    if (const uint32_t *Found = HashIntern.find(StateHash, SameState))
      return *Found;
  } else {
    FlatKey.clear();
    for (uint32_t I : Order)
      serializeSubparser(Configs[I], FlatKey);
    if (const uint32_t *Found = AvlIntern.find(FlatKey))
      return *Found;
  }

  DfaState St;
  St.Configs.reserve(Configs.size());
  for (uint32_t I : Order)
    St.Configs.push_back(std::move(Configs[I]));
  // A cache that outlives the parse epoch re-anchors any arena-allocated
  // sim stacks on the heap before the state is stored. A parse-local
  // cache dies before the arena rewinds, so its stacks stay put.
  if (adt::Arena *A = OutlivesEpoch ? adt::activeArena() : nullptr) {
    auto Block = std::make_shared<std::deque<SimStackNode>>();
    std::vector<std::pair<const SimStackNode *, SimStackPtr>> Memo;
    for (Subparser &Sp : St.Configs) {
      assert(Sp.Visited.empty() &&
             "cached configs must carry empty visited sets");
      Sp.Stack = detachSimStack(Sp.Stack, A, Block, Memo);
    }
  }
  std::vector<ProductionId> Preds = distinctPredictions(St.Configs);
  if (Preds.empty())
    St.Res = Resolution::Reject;
  else if (Preds.size() == 1) {
    St.Res = Resolution::Unique;
    St.UniquePred = Preds[0];
  }
  St.FinalPreds = distinctFinalPredictions(St.Configs);

  uint32_t Id = static_cast<uint32_t>(States.size());
  States.push_back(std::move(St));
  if (Backend == CacheBackend::Hashed) {
    uint32_t Assigned = HashIntern.insert(StateHash);
    assert(Assigned == Id && "state index id diverged from state id");
    (void)Assigned;
  } else {
    robust::injectPoint(robust::FaultSite::AvlCacheInsert);
    AvlIntern = AvlIntern.insert(FlatKey, Id);
  }
  return Id;
}

std::optional<uint32_t> SllCache::findStart(NonterminalId X) const {
  if (Backend == CacheBackend::Hashed)
    robust::injectPoint(robust::FaultSite::HashedCacheProbe);
  const uint32_t *Found = Backend == CacheBackend::Hashed
                              ? HashStartStates.find(X)
                              : AvlStartStates.find(X);
  if (Found)
    return *Found;
  return std::nullopt;
}

void SllCache::recordStart(NonterminalId X, uint32_t Id) {
  if (Backend == CacheBackend::Hashed) {
    HashStartStates.insert(X, Id);
  } else {
    robust::injectPoint(robust::FaultSite::AvlCacheInsert);
    AvlStartStates = AvlStartStates.insert(X, Id);
  }
}

std::optional<uint32_t> SllCache::findTransition(uint32_t From,
                                                 TerminalId T) const {
  if (Backend == CacheBackend::Hashed)
    robust::injectPoint(robust::FaultSite::HashedCacheProbe);
  uint64_t Key = (static_cast<uint64_t>(From) << 32) | T;
  const uint32_t *Found = Backend == CacheBackend::Hashed
                              ? HashTransitions.find(Key)
                              : AvlTransitions.find(Key);
  if (Found)
    return *Found;
  return std::nullopt;
}

void SllCache::recordTransition(uint32_t From, TerminalId T, uint32_t To) {
  uint64_t Key = (static_cast<uint64_t>(From) << 32) | T;
  if (Backend == CacheBackend::Hashed) {
    HashTransitions.insert(Key, To);
  } else {
    robust::injectPoint(robust::FaultSite::AvlCacheInsert);
    AvlTransitions = AvlTransitions.insert(Key, To);
  }
}

void SllCache::forEachStart(
    const std::function<void(NonterminalId, uint32_t)> &Fn) const {
  // Both backends funnel through one sort so the enumeration order — and
  // therefore every serialized artifact built from it — is a function of
  // the cache's *contents*, never of probe order or AVL shape.
  std::vector<std::pair<NonterminalId, uint32_t>> Starts;
  if (Backend == CacheBackend::Hashed)
    HashStartStates.forEach([&](uint64_t Key, uint32_t Id) {
      Starts.emplace_back(static_cast<NonterminalId>(Key), Id);
    });
  else
    AvlStartStates.forEach(
        [&](NonterminalId X, uint32_t Id) { Starts.emplace_back(X, Id); });
  std::sort(Starts.begin(), Starts.end());
  for (const auto &[X, Id] : Starts)
    Fn(X, Id);
}

void SllCache::forEachTransition(
    const std::function<void(uint32_t, TerminalId, uint32_t)> &Fn) const {
  std::vector<std::pair<uint64_t, uint32_t>> Edges;
  if (Backend == CacheBackend::Hashed)
    HashTransitions.forEach(
        [&](uint64_t Key, uint32_t To) { Edges.emplace_back(Key, To); });
  else
    AvlTransitions.forEach(
        [&](uint64_t Key, uint32_t To) { Edges.emplace_back(Key, To); });
  std::sort(Edges.begin(), Edges.end());
  for (const auto &[Key, To] : Edges)
    Fn(static_cast<uint32_t>(Key >> 32),
       static_cast<TerminalId>(Key & 0xFFFFFFFFu), To);
}

//===----------------------------------------------------------------------===//
// SLL prediction
//===----------------------------------------------------------------------===//

PredictionResult costar::sllPredict(const Grammar &G,
                                    const PredictionTables &Tables,
                                    SllCache &Cache, NonterminalId X,
                                    const Word &Input, size_t Pos,
                                    obs::Tracer *Trace,
                                    robust::BudgetTracker *Budget) {
  Simulator Sim(G, &Tables, SimMode::SLL, Budget);

  uint32_t Sid;
  if (std::optional<uint32_t> Start = Cache.findStart(X)) {
    ++Cache.Hits;
    Sid = *Start;
    if (Trace)
      Trace->emit(obs::EventKind::SllCacheHit, Sid, UINT32_MAX, 0, Pos);
  } else {
    ++Cache.Misses;
    VisitedSet InitVisited = VisitedSet().insert(X);
    std::vector<Subparser> &Init = Sim.seed();
    for (ProductionId P : G.productionsFor(X))
      Init.push_back(
          Subparser{P,
                    makeSimStack(SimFrame{P, &G.production(P).Rhs, 0}, nullptr),
                    InitVisited});
    ClosureOut CR = Sim.closure();
    if (CR.Err)
      return PredictionResult::error(*CR.Err);
    Sid = Cache.intern(std::move(CR.Configs));
    Cache.recordStart(X, Sid);
    if (Trace)
      Trace->emit(obs::EventKind::SllCacheMiss, Sid, UINT32_MAX, 0, Pos);
  }

  size_t I = Pos;
  for (;;) {
    // Structured failure polls: an injected cache fault unwinds here as an
    // error result (never an exception); an armed budget is ticked once
    // per simulated token.
    if (std::optional<robust::FaultSite> F = robust::takePendingFault())
      return PredictionResult::error(ParseError::faultInjected(*F));
    if (Budget) {
      if (std::optional<robust::BudgetReason> R = Budget->tick())
        return PredictionResult::error(ParseError::budgetExceeded(*R));
    }
    // Note: do not hold a reference to the state across intern() calls.
    SllCache::Resolution Res = Cache.state(Sid).Res;
    if (Res == SllCache::Resolution::Reject)
      return PredictionResult::reject();
    if (Res == SllCache::Resolution::Unique)
      return PredictionResult::unique(Cache.state(Sid).UniquePred);
    if (I == Input.size())
      return resolveAtEndOfInput(Cache.state(Sid).FinalPreds);

    TerminalId T = Input[I].Term;
    if (std::optional<uint32_t> Next = Cache.findTransition(Sid, T)) {
      ++Cache.Hits;
      Sid = *Next;
      if (Trace)
        Trace->emit(obs::EventKind::SllCacheHit, Sid, T, 0, I);
    } else {
      ++Cache.Misses;
      Sim.moveInto(Cache.state(Sid).Configs, T);
      ClosureOut CR = Sim.closure();
      if (CR.Err)
        return PredictionResult::error(*CR.Err);
      uint32_t NextId = Cache.intern(std::move(CR.Configs));
      Cache.recordTransition(Sid, T, NextId);
      Sid = NextId;
      if (Trace)
        Trace->emit(obs::EventKind::SllCacheMiss, Sid, T, 0, I);
    }
    ++I;
  }
}

//===----------------------------------------------------------------------===//
// adaptivePredict
//===----------------------------------------------------------------------===//

PredictionResult costar::adaptivePredict(
    const Grammar &G, const PredictionTables &Tables, SllCache &Cache,
    NonterminalId X, std::span<const Frame> MachineStack,
    const VisitedSet &Visited, const Word &Input, size_t Pos,
    PredictionStats *Stats, obs::Tracer *Trace,
    robust::BudgetTracker *Budget) {
  if (Stats) {
    ++Stats->Predictions;
    ++Stats->SllPredictions;
  }
  PredictionResult SllRes =
      sllPredict(G, Tables, Cache, X, Input, Pos, Trace, Budget);
  if (SllRes.ResultKind != PredictionResult::Kind::Ambig)
    return SllRes;
  // The SLL result may be unsound (the overapproximated stacks kept a
  // right-hand side alive that precise simulation would rule out): restart
  // in LL mode.
  if (Stats)
    ++Stats->Failovers;
  if (Trace) {
    Trace->emit(obs::EventKind::SllCacheConflict, X, SllRes.Prod, 0, Pos);
    Trace->emit(obs::EventKind::LlFallback, X, 0, 0, Pos);
  }
  return llPredict(G, X, MachineStack, Visited, Input, Pos, Budget);
}
