//===- tests/core/AllocEquivalenceTest.cpp ------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the allocation-backend claims (adt/Arena.h):
///
///  - AllocBackend::Arena produces bit-identical ParseResults to
///    AllocBackend::SharedPtrPaperFaithful on every input — same kind,
///    same tree, same reject diagnostics, same error — over random
///    grammars (including ambiguous, rejecting, and left-recursive ones),
///    crossed with both cache backends.
///
///  - Stats are identical modulo the alloc counters: machine operations,
///    prediction and cache activity, and AllocNodes (counted at creation
///    helpers, so epoch-detach copies are invisible) all match; AllocBytes
///    is deliberately excluded (backend-dependent accounting).
///
///  - Trace event sequences are identical across alloc backends.
///
///  - Epoch lifetime edges: results outlive the epoch that built them
///    (auto-detach), consecutive parses on one Parser rewind and reuse the
///    same arena, explicit Tree::detach() escapes a live epoch, and the
///    ParseBudget byte cap trips inside the arena path.
///
///  - A machine's own (parse-local) SLL cache keeps its configs' sim
///    stacks in the epoch arena: it dies before the arena rewinds, so
///    intern() skips the heap detach that caller-held caches need.
///
///  - Epoch handoff (ParseOptions::DetachResults == false): results
///    co-own their epoch's arena zero-copy, stay valid across later
///    parses, parser destruction, and cross-thread destruction, and the
///    parser reuses its warmed arena whenever no result pins it.
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "obs/Trace.h"

#include "../RandomGrammar.h"
#include "../TestGrammars.h"
#include "grammar/Sampler.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>

using namespace costar;
using namespace costar::test;

namespace {

/// Bit-identical comparison of two ParseResults.
void expectIdentical(const ParseResult &A, const ParseResult &B,
                     const Grammar &G) {
  ASSERT_EQ(A.kind(), B.kind()) << G.toString();
  switch (A.kind()) {
  case ParseResult::Kind::Unique:
  case ParseResult::Kind::Ambig:
    EXPECT_TRUE(treeEquals(A.tree(), B.tree())) << G.toString();
    break;
  case ParseResult::Kind::Reject:
    EXPECT_EQ(A.rejectTokenIndex(), B.rejectTokenIndex()) << G.toString();
    EXPECT_EQ(A.rejectReason(), B.rejectReason()) << G.toString();
    break;
  case ParseResult::Kind::Error:
    EXPECT_EQ(A.err().Kind, B.err().Kind) << G.toString();
    EXPECT_EQ(A.err().Nt, B.err().Nt) << G.toString();
    break;
  case ParseResult::Kind::BudgetExceeded:
    EXPECT_EQ(static_cast<int>(A.budget().Reason),
              static_cast<int>(B.budget().Reason))
        << G.toString();
    break;
  }
}

/// Everything in Machine::Stats except AllocBytes (whose accounting is
/// backend-dependent by design) must be identical across alloc backends.
void expectStatsIdenticalModuloBytes(const Machine::Stats &A,
                                     const Machine::Stats &B,
                                     const Grammar &G) {
  EXPECT_EQ(A.Steps, B.Steps) << G.toString();
  EXPECT_EQ(A.Consumes, B.Consumes) << G.toString();
  EXPECT_EQ(A.Pushes, B.Pushes) << G.toString();
  EXPECT_EQ(A.Returns, B.Returns) << G.toString();
  EXPECT_EQ(A.Pred.Predictions, B.Pred.Predictions) << G.toString();
  EXPECT_EQ(A.Pred.SllPredictions, B.Pred.SllPredictions) << G.toString();
  EXPECT_EQ(A.Pred.Failovers, B.Pred.Failovers) << G.toString();
  EXPECT_EQ(A.CacheHits, B.CacheHits) << G.toString();
  EXPECT_EQ(A.CacheMisses, B.CacheMisses) << G.toString();
  EXPECT_EQ(A.CacheStatesAdded, B.CacheStatesAdded) << G.toString();
  EXPECT_EQ(A.AllocNodes, B.AllocNodes) << G.toString();
}

ParseOptions withBackends(adt::AllocBackend Alloc, CacheBackend Cache) {
  ParseOptions Opts;
  Opts.Alloc = Alloc;
  Opts.Backend = Cache;
  return Opts;
}

} // namespace

TEST(AllocBackends, BitIdenticalOnRandomGrammars) {
  // >= 200 random grammars x both cache backends x both alloc backends.
  std::mt19937_64 Rng(20260806);
  int Grammars = 0, Ambigs = 0, Rejects = 0, Errors = 0;
  while (Grammars < 200) {
    Grammar G = randomGrammar(Rng);
    GrammarAnalysis A(G, 0);
    if (!A.productive(0))
      continue;
    ++Grammars;
    DerivationSampler Sampler(A, Rng());
    bool LeftRec = !isLeftRecursionFree(A);
    for (CacheBackend CB :
         {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
      Parser Shared(G, 0,
                    withBackends(adt::AllocBackend::SharedPtrPaperFaithful,
                                 CB));
      Parser Arena(G, 0, withBackends(adt::AllocBackend::Arena, CB));
      for (int WordTrial = 0; WordTrial < 3; ++WordTrial) {
        Word W;
        if (LeftRec) {
          size_t Len = Rng() % 6;
          for (size_t I = 0; I < Len; ++I) {
            TerminalId T = static_cast<TerminalId>(Rng() % G.numTerminals());
            W.emplace_back(T, G.terminalName(T));
          }
        } else {
          W = Sampler.sampleWord(0, 5);
          if (W.size() > 40)
            continue;
          if (WordTrial % 2 == 1)
            W = corruptWord(Rng, G, W);
        }
        Machine::Stats SS, SA;
        ParseResult RS = Shared.parse(W, &SS);
        ParseResult RA = Arena.parse(W, &SA);
        expectIdentical(RS, RA, G);
        expectStatsIdenticalModuloBytes(SS, SA, G);
        switch (RS.kind()) {
        case ParseResult::Kind::Ambig:
          ++Ambigs;
          break;
        case ParseResult::Kind::Reject:
          ++Rejects;
          break;
        case ParseResult::Kind::Error:
          ++Errors;
          break;
        default:
          break;
        }
      }
    }
  }
  // The sweep must actually have exercised the interesting result kinds.
  EXPECT_GT(Rejects, 10);
  EXPECT_GT(Ambigs + Errors, 0);
}

TEST(AllocBackends, TraceEventSequencesIdentical) {
  // The arena changes where nodes live, never what the machine does: two
  // parses of the same word must emit identical event streams.
  std::mt19937_64 Rng(77);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    GrammarAnalysis A(G, 0);
    DerivationSampler Sampler(A, Rng());
    Word W = Sampler.sampleWord(0, 5);
    if (W.size() > 60)
      continue;
    obs::RingBufferTracer TS(1 << 14), TA(1 << 14);
    ParseOptions OS =
        withBackends(adt::AllocBackend::SharedPtrPaperFaithful,
                     CacheBackend::Hashed);
    ParseOptions OA =
        withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
    OS.Trace = &TS;
    OA.Trace = &TA;
    (void)parse(G, 0, W, OS);
    (void)parse(G, 0, W, OA);
    std::vector<obs::TraceEvent> ES = TS.events(), EA = TA.events();
    ASSERT_EQ(ES.size(), EA.size()) << G.toString();
    for (size_t I = 0; I < ES.size(); ++I)
      EXPECT_TRUE(obs::sameFact(ES[I], EA[I])) << G.toString();
  }
}

TEST(AllocLifetime, ResultsOutliveTheEpoch) {
  // run() auto-detaches accepted results, so a tree returned by one parse
  // stays valid (and structurally unchanged) across any number of later
  // parses that rewind the same parser's arena.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Parser P(G, S, withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed));
  Word W1 = makeWord(G, "a a b c");
  Word W2 = makeWord(G, "b d");
  ParseResult R1 = P.parse(W1);
  ASSERT_EQ(R1.kind(), ParseResult::Kind::Unique);
  ASSERT_FALSE(adt::Arena::ownedByLiveArena(R1.tree().get()));
  std::string Before = R1.tree()->toString(G);
  // Rewind the epoch several times over.
  for (int I = 0; I < 5; ++I) {
    ParseResult R2 = P.parse(I % 2 ? W2 : W1);
    ASSERT_EQ(R2.kind(), ParseResult::Kind::Unique);
  }
  EXPECT_EQ(R1.tree()->toString(G), Before);
  EXPECT_EQ(R1.tree()->yield().size(), W1.size());
}

TEST(AllocLifetime, EpochResetBetweenConsecutiveParsesReusesSlabs) {
  // One Parser, many parses: after the first parse has grown the arena,
  // subsequent parses of like-sized inputs acquire no new slab capacity —
  // the zero-malloc steady state the arena exists for.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  ParseOptions Opts =
      withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
  adt::Arena A;
  Opts.AllocArena = &A;
  Parser P(G, S, Opts);
  Word W = makeWord(G, "a a a a b c");
  ASSERT_EQ(P.parse(W).kind(), ParseResult::Kind::Unique);
  size_t Capacity = A.capacity();
  uint64_t Epoch = A.epoch();
  ASSERT_GT(Capacity, 0u);
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(P.parse(W).kind(), ParseResult::Kind::Unique);
  EXPECT_EQ(A.capacity(), Capacity);
  // Each run() opened a fresh epoch on the shared arena.
  EXPECT_EQ(A.epoch(), Epoch + 10);
}

TEST(AllocLifetime, ParseLocalCacheStacksStayInTheEpoch) {
  // Every node of every cached config of the machine's own cache was
  // built by closure inside the run's epoch and never copied out.
  std::mt19937_64 Rng(1313);
  adt::Arena A;
  size_t Nodes = 0;
  for (int Trial = 0; Trial < 20; ++Trial) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    GrammarAnalysis An(G, 0);
    PredictionTables Tables(G, An);
    DerivationSampler Sampler(An, Rng());
    Word W = Sampler.sampleWord(0, 5);
    if (W.size() > 40)
      continue;
    for (CacheBackend B :
         {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
      ParseOptions Opts = withBackends(adt::AllocBackend::Arena, B);
      Opts.AllocArena = &A;
      Machine M(G, Tables, 0, W, Opts);
      (void)M.run();
      const SllCache &C = M.cache();
      for (uint32_t Id = 0; Id < C.numStates(); ++Id)
        for (const Subparser &Sp : C.state(Id).Configs)
          for (const SimStackNode *N = Sp.Stack.get(); N; N = N->Tail.get()) {
            EXPECT_TRUE(A.owns(N)) << G.toString();
            ++Nodes;
          }
    }
  }
  EXPECT_GT(Nodes, 100u);
}

TEST(AllocLifetime, ExplicitDetachEscapesALiveEpoch) {
  // Tree::detach() inside an active epoch yields a fully heap-owned deep
  // copy: every node and forest buffer is outside the arena.
  Grammar G = figure2Grammar();
  adt::Arena A;
  TreePtr Detached;
  {
    adt::ScopedArena Install(&A);
    Forest Kids;
    Kids.push_back(Tree::leaf(Token{G.lookupTerminal("a"), "a"}));
    Kids.push_back(Tree::leaf(Token{G.lookupTerminal("b"), "b"}));
    TreePtr Epochal = Tree::node(G.lookupNonterminal("A"), std::move(Kids));
    ASSERT_TRUE(A.owns(Epochal.get()));
    Detached = Epochal->detach();
    EXPECT_TRUE(treeEquals(Epochal, Detached));
  }
  A.reset();
  EXPECT_FALSE(adt::Arena::ownedByLiveArena(Detached.get()));
  ASSERT_FALSE(Detached->isLeaf());
  EXPECT_FALSE(
      adt::Arena::ownedByLiveArena(Detached->children().data()));
  for (const TreePtr &Child : Detached->children())
    EXPECT_FALSE(adt::Arena::ownedByLiveArena(Child.get()));
  EXPECT_EQ(Detached->nodeCount(), 3u);
}

TEST(AllocLifetime, EpochHandoffResultCoOwnsItsEpoch) {
  // DetachResults == false: the accepted result's handle co-owns the
  // parse's arena. Holding it forces the parser onto a fresh arena for
  // the next parse; the held tree stays bit-stable across later parses
  // and even across the parser's destruction.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  ParseOptions Opts =
      withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
  Opts.DetachResults = false;
  Word W1 = makeWord(G, "a a b c");
  Word W2 = makeWord(G, "b d");
  std::optional<ParseResult> R1;
  std::string Before;
  {
    Parser P(G, S, Opts);
    R1 = P.parse(W1);
    ASSERT_EQ(R1->kind(), ParseResult::Kind::Unique);
    // Zero-copy: the tree still lives inside a live arena.
    EXPECT_TRUE(adt::Arena::ownedByLiveArena(R1->tree().get()));
    Before = R1->tree()->toString(G);
    const adt::Arena *Pinned = P.epochArena();
    ASSERT_TRUE(Pinned->owns(R1->tree().get()));
    for (int I = 0; I < 5; ++I) {
      ParseResult R2 = P.parse(I % 2 ? W2 : W1);
      ASSERT_EQ(R2.kind(), ParseResult::Kind::Unique);
      EXPECT_EQ(R1->tree()->toString(G), Before);
    }
    // The pinned epoch was handed over, never rewound: the parser moved
    // to a fresh arena (the old one stays alive under R1, so the new
    // pointer cannot be a coincidental reallocation at the same address).
    EXPECT_NE(P.epochArena(), Pinned);
  }
  // Parser destroyed; R1 keeps its whole epoch alive.
  EXPECT_EQ(R1->tree()->toString(G), Before);
  EXPECT_EQ(R1->tree()->yield().size(), W1.size());
  // Explicit detach trims the handed-off result to tree-only storage.
  TreePtr Trimmed = R1->tree()->detach();
  R1.reset();
  EXPECT_FALSE(adt::Arena::ownedByLiveArena(Trimmed.get()));
  EXPECT_EQ(Trimmed->toString(G), Before);
}

TEST(AllocLifetime, EpochHandoffReusesArenaWhenResultsAreDropped) {
  // Handoff only costs a fresh arena while a result is actually held:
  // callers that drop each result before the next parse keep the
  // zero-malloc steady state.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  ParseOptions Opts =
      withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
  Opts.DetachResults = false;
  Parser P(G, S, Opts);
  Word W = makeWord(G, "a a a a b c");
  ASSERT_EQ(P.parse(W).kind(), ParseResult::Kind::Unique);
  const adt::Arena *A = P.epochArena();
  size_t Capacity = A->capacity();
  ASSERT_GT(Capacity, 0u);
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(P.parse(W).kind(), ParseResult::Kind::Unique);
  EXPECT_EQ(P.epochArena(), A);
  EXPECT_EQ(A->capacity(), Capacity);
}

TEST(AllocLifetime, EpochHandoffSurvivesCrossThreadDestruction) {
  // A handed-off result may be dropped on a different thread than the one
  // that filled its arena; the global live-arena registry keeps buffer
  // deallocation routing correct. ASan/TSan runs of this test gate the
  // claim.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  ParseOptions Opts =
      withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
  Opts.DetachResults = false;
  Word W = makeWord(G, "a a b c");
  std::optional<ParseResult> Escaped;
  std::thread Producer([&] {
    Parser P(G, S, Opts);
    Escaped = P.parse(W);
  });
  Producer.join();
  ASSERT_EQ(Escaped->kind(), ParseResult::Kind::Unique);
  EXPECT_TRUE(adt::Arena::ownedByLiveArena(Escaped->tree().get()));
  EXPECT_EQ(Escaped->tree()->yield().size(), W.size());
  Escaped.reset(); // destroy the epoch on this thread
}

TEST(AllocBackends, BitIdenticalWithEpochHandoff) {
  // The escape mode changes ownership, never structure: handed-off
  // results match the sharedptr backend's bit for bit.
  std::mt19937_64 Rng(20260807);
  int Grammars = 0;
  while (Grammars < 40) {
    Grammar G = randomGrammar(Rng);
    GrammarAnalysis A(G, 0);
    if (!A.productive(0) || !isLeftRecursionFree(A))
      continue;
    ++Grammars;
    DerivationSampler Sampler(A, Rng());
    ParseOptions HandoffOpts =
        withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed);
    HandoffOpts.DetachResults = false;
    Parser Shared(G, 0,
                  withBackends(adt::AllocBackend::SharedPtrPaperFaithful,
                               CacheBackend::Hashed));
    Parser Handoff(G, 0, HandoffOpts);
    std::vector<ParseResult> Held; // pin every epoch while comparing
    for (int WordTrial = 0; WordTrial < 3; ++WordTrial) {
      Word W = Sampler.sampleWord(0, 5);
      if (W.size() > 40)
        continue;
      Machine::Stats SS, SH;
      ParseResult RS = Shared.parse(W, &SS);
      ParseResult RH = Handoff.parse(W, &SH);
      expectIdentical(RS, RH, G);
      expectStatsIdenticalModuloBytes(SS, SH, G);
      Held.push_back(std::move(RH));
    }
  }
}

TEST(AllocBudget, ByteCapTripsOnBothBackends) {
  // MaxAllocBytes is deterministic within a backend: an absurdly small cap
  // must trip (as BudgetExceeded{Memory}), an unlimited one must not.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Word W = makeWord(G, "a a a a a a b c");
  for (adt::AllocBackend AB :
       {adt::AllocBackend::SharedPtrPaperFaithful,
        adt::AllocBackend::Arena}) {
    ParseOptions Opts = withBackends(AB, CacheBackend::Hashed);
    Opts.Budget.MaxAllocBytes = 1;
    ParseResult Capped = parse(G, S, W, Opts);
    ASSERT_EQ(Capped.kind(), ParseResult::Kind::BudgetExceeded)
        << adt::allocBackendName(AB);
    EXPECT_EQ(static_cast<int>(Capped.budget().Reason),
              static_cast<int>(robust::BudgetReason::Memory));
    Opts.Budget.MaxAllocBytes = robust::ParseBudget::Unlimited;
    EXPECT_EQ(parse(G, S, W, Opts).kind(), ParseResult::Kind::Unique);
  }
}

TEST(AllocStats, ArenaBytesCoverTreeAndSimStackNodes) {
  // Sanity floor on the byte accounting: an arena parse must charge at
  // least one Tree per consumed token plus the machine's pushes.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Word W = makeWord(G, "a a b c");
  Machine::Stats St;
  (void)Parser(G, S,
               withBackends(adt::AllocBackend::Arena, CacheBackend::Hashed))
      .parse(W, &St);
  EXPECT_GT(St.AllocNodes, W.size());
  EXPECT_GE(St.AllocBytes, St.AllocNodes * sizeof(uint64_t));
}
