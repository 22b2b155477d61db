//===- tests/core/CacheEquivalenceTest.cpp ------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the cache-backend and cache-reuse claims:
///
///  - The Hashed SLL-cache backend produces bit-identical ParseResults to
///    the AvlPaperFaithful backend on every input (same kind, same tree,
///    same reject position/reason, same error), over random grammars —
///    including ambiguous, rejecting, and left-recursive ones.
///
///  - Warm-cache parses (ReuseCache, second parse) are identical to
///    cold-cache parses, for both backends.
///
///  - Machine::Stats reports per-run cache deltas even when the cache
///    accumulates across runs.
///
///  - Every interned state lists its configs in strictly ascending
///    serialized-key order (the canonical form both backends share), and
///    a cache that outlives the parse epoch (ReuseCache, SharedSllCache)
///    holds no sim-stack node a live arena owns.
///
//===----------------------------------------------------------------------===//

#include "core/Parser.h"
#include "core/SharedSllCache.h"
#include "lang/Language.h"

#include "../RandomGrammar.h"
#include "../TestGrammars.h"
#include "grammar/Sampler.h"

#include <gtest/gtest.h>

using namespace costar;
using namespace costar::test;

namespace {

/// Bit-identical comparison of two ParseResults (stricter than kind
/// equality: trees, reject diagnostics, and error payloads must match).
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

/// Checks that each state's configs are in strictly ascending serialized
/// key order.
void expectCanonicalStates(const SllCache &C) {
  for (uint32_t Id = 0; Id < C.numStates(); ++Id) {
    const std::vector<Subparser> &Configs = C.state(Id).Configs;
    std::vector<uint32_t> Prev, Key;
    for (size_t I = 0; I < Configs.size(); ++I) {
      Key.clear();
      serializeSubparser(Configs[I], Key);
      if (I > 0) {
        EXPECT_TRUE(std::lexicographical_compare(Prev.begin(), Prev.end(),
                                                 Key.begin(), Key.end()))
            << "state " << Id << " is not in canonical order";
      }
      std::swap(Prev, Key);
    }
  }
}

/// Checks that no cached sim-stack node lives in an arena: the cache
/// outlives every epoch that filled it, so each was detached to the heap.
void expectNoArenaNodes(const SllCache &C) {
  for (uint32_t Id = 0; Id < C.numStates(); ++Id)
    for (const Subparser &Sp : C.state(Id).Configs)
      for (const SimStackNode *N = Sp.Stack.get(); N; N = N->Tail.get())
        ASSERT_FALSE(adt::Arena::ownedByLiveArena(N)) << "state " << Id;
}

ParseOptions withBackend(CacheBackend B, bool Reuse = false) {
  ParseOptions Opts;
  Opts.Backend = B;
  Opts.ReuseCache = Reuse;
  return Opts;
}

} // namespace

TEST(CacheBackends, BitIdenticalOnRandomGrammars) {
  // Arbitrary random grammars: most accept/reject, some are ambiguous,
  // and (since we deliberately do NOT filter) some are left-recursive and
  // must produce identical LeftRecursive errors on both backends.
  std::mt19937_64 Rng(20260806);
  int Ambigs = 0, Rejects = 0, Errors = 0;
  for (int Trial = 0; Trial < 80; ++Trial) {
    Grammar G = randomGrammar(Rng);
    GrammarAnalysis A(G, 0);
    if (!A.productive(0))
      continue;
    Parser Avl(G, 0, withBackend(CacheBackend::AvlPaperFaithful));
    Parser Hashed(G, 0, withBackend(CacheBackend::Hashed));
    DerivationSampler Sampler(A, Rng());
    bool LeftRec = !isLeftRecursionFree(A);
    for (int WordTrial = 0; WordTrial < 6; ++WordTrial) {
      // Left-recursive grammars can make the sampler loop; use short
      // arbitrary words for them instead of derivation samples.
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
      Machine::Stats SA, SH;
      ParseResult RA = Avl.parse(W, &SA);
      ParseResult RH = Hashed.parse(W, &SH);
      expectIdentical(RA, RH, G);
      // The backends index the same DFA: identical hit/miss behavior.
      EXPECT_EQ(SA.CacheHits, SH.CacheHits) << G.toString();
      EXPECT_EQ(SA.CacheMisses, SH.CacheMisses) << G.toString();
      EXPECT_EQ(SA.CacheStatesAdded, SH.CacheStatesAdded) << G.toString();
      switch (RA.kind()) {
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
  // The sweep must actually have exercised the interesting result kinds.
  EXPECT_GT(Rejects, 10);
  EXPECT_GT(Ambigs + Errors, 0);
}

TEST(CacheBackends, BitIdenticalOnAmbiguousAndLeftRecursiveCases) {
  struct Case {
    const char *GrammarText;
    const char *WordText;
  };
  const Case Cases[] = {
      {"S -> X\nS -> Y\nX -> a\nY -> a\n", "a"},             // ambiguous
      {"S -> i S\nS -> i S e S\nS -> x\n", "i i x e x"},     // dangling else
      {"S -> S a\nS -> b\n", "b a"},                         // left-recursive
      {"S -> A c\nS -> A d\nA -> a A\nA -> b\n", "a a b d"}, // figure 2
      {"S -> A c\nS -> A d\nA -> a A\nA -> b\n", "a a b"},   // reject
  };
  for (const Case &C : Cases) {
    Grammar G = makeGrammar(C.GrammarText);
    NonterminalId S = G.lookupNonterminal("S");
    Word W = makeWord(G, C.WordText);
    Parser Avl(G, S, withBackend(CacheBackend::AvlPaperFaithful));
    Parser Hashed(G, S, withBackend(CacheBackend::Hashed));
    ParseResult RA = Avl.parse(W);
    ParseResult RH = Hashed.parse(W);
    expectIdentical(RA, RH, G);
  }
}

TEST(CacheReuse, WarmEqualsColdOnRandomGrammarsBothBackends) {
  std::mt19937_64 Rng(4242);
  for (CacheBackend B :
       {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
    for (int Trial = 0; Trial < 30; ++Trial) {
      Grammar G = randomNonLeftRecursiveGrammar(Rng);
      Parser Cold(G, 0, withBackend(B, /*Reuse=*/false));
      Parser Warm(G, 0, withBackend(B, /*Reuse=*/true));
      GrammarAnalysis A(G, 0);
      DerivationSampler Sampler(A, Rng());
      for (int WordTrial = 0; WordTrial < 8; ++WordTrial) {
        Word W = Sampler.sampleWord(0, 5);
        if (W.size() > 40)
          continue;
        if (WordTrial % 2 == 1)
          W = corruptWord(Rng, G, W);
        // Parse twice with the warm parser: the second run hits whatever
        // the first one cached and must still match the cold parser.
        ParseResult RC = Cold.parse(W);
        ParseResult RW1 = Warm.parse(W);
        ParseResult RW2 = Warm.parse(W);
        expectIdentical(RC, RW1, G);
        expectIdentical(RC, RW2, G);
      }
      // The warm cache survived every arena rewind above by owning its
      // stacks on the heap.
      expectCanonicalStates(Warm.sharedCache());
      expectNoArenaNodes(Warm.sharedCache());
    }
  }
}

TEST(CacheReuse, StatsReportPerRunDeltas) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Word W = makeWord(G, "a a b c");
  for (CacheBackend B :
       {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
    Parser P(G, S, withBackend(B, /*Reuse=*/true));
    Machine::Stats First, Second;
    (void)P.parse(W, &First);
    (void)P.parse(W, &Second);
    // The cold run built DFA states; the warm re-run of the same word
    // must be all hits: no misses, no new states, and the deltas must not
    // include the first run's activity.
    EXPECT_GT(First.CacheMisses, 0u);
    EXPECT_GT(First.CacheStatesAdded, 0u);
    EXPECT_GT(Second.CacheHits, 0u);
    EXPECT_EQ(Second.CacheMisses, 0u);
    EXPECT_EQ(Second.CacheStatesAdded, 0u);
    // The shared cache's raw counters accumulate across both runs.
    EXPECT_EQ(P.sharedCache().Hits + P.sharedCache().Misses,
              First.CacheHits + First.CacheMisses + Second.CacheHits +
                  Second.CacheMisses);
  }
}

TEST(SharedCache, SnapshotPublishAdoptsOnlyWarmerCaches) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  GrammarAnalysis A(G, S);
  PredictionTables Tables(G, A);
  SharedSllCache Shared(CacheBackend::Hashed);
  EXPECT_EQ(Shared.snapshot()->numStates(), 0u);

  // Warm a copy, publish it, and check adoption.
  SllCache Local = *Shared.snapshot();
  Word W = makeWord(G, "a b c");
  Machine M(G, Tables, S, W, withBackend(CacheBackend::Hashed), &Local);
  EXPECT_EQ(M.run().kind(), ParseResult::Kind::Unique);
  EXPECT_GT(Local.numStates(), 0u);
  EXPECT_TRUE(Shared.publish(Local));
  EXPECT_EQ(Shared.snapshot()->numStates(), Local.numStates());

  // A colder (empty) cache must not replace the snapshot.
  SllCache Empty(CacheBackend::Hashed);
  EXPECT_FALSE(Shared.publish(Empty));
  EXPECT_EQ(Shared.snapshot()->numStates(), Local.numStates());

  // A fresh machine seeded from the snapshot parses warm: zero misses.
  SllCache Seeded = *Shared.snapshot();
  Machine M2(G, Tables, S, W, withBackend(CacheBackend::Hashed), &Seeded);
  EXPECT_EQ(M2.run().kind(), ParseResult::Kind::Unique);
  EXPECT_EQ(M2.stats().CacheMisses, 0u);
  EXPECT_GT(M2.stats().CacheHits, 0u);
}

TEST(SharedCacheStats, PublishedSnapshotsCarryNoActivityCounters) {
  // Regression test: publish() must store DFA structure only. It used to
  // copy the publishing thread's Hits/Misses into the snapshot, so a
  // worker seeding from it inherited another thread's activity and its
  // per-parse deltas were computed against a baseline it never produced.
  for (CacheBackend B :
       {CacheBackend::AvlPaperFaithful, CacheBackend::Hashed}) {
    Grammar G = figure2Grammar();
    NonterminalId S = G.lookupNonterminal("S");
    GrammarAnalysis A(G, S);
    PredictionTables Tables(G, A);
    SharedSllCache Shared(B);

    // Warm a local cache with real activity, then publish it.
    SllCache Local = *Shared.snapshot();
    Word W = makeWord(G, "a a b c");
    Machine M(G, Tables, S, W, withBackend(B), &Local);
    ASSERT_EQ(M.run().kind(), ParseResult::Kind::Unique);
    ASSERT_GT(Local.Hits + Local.Misses, 0u);
    ASSERT_TRUE(Shared.publish(Local));

    // The snapshot has the structure but none of the activity.
    std::shared_ptr<const SllCache> Snap = Shared.snapshot();
    EXPECT_EQ(Snap->numStates(), Local.numStates());
    EXPECT_EQ(Snap->Hits, 0u);
    EXPECT_EQ(Snap->Misses, 0u);

    // A machine seeded from the snapshot sees per-parse deltas equal to
    // the seeded cache's own (post-run) counters: all activity is local.
    SllCache Seeded = *Snap;
    Machine M2(G, Tables, S, W, withBackend(B), &Seeded);
    ASSERT_EQ(M2.run().kind(), ParseResult::Kind::Unique);
    EXPECT_EQ(M2.stats().CacheHits, Seeded.Hits);
    EXPECT_EQ(M2.stats().CacheMisses, Seeded.Misses);
  }
}

TEST(SharedCacheStats, MidBatchPublishKeepsAggregateDeltasConsistent) {
  // Batch-level regression companion: with mid-batch publish/adopt
  // cycles (small PublishInterval, several threads), the aggregate
  // per-parse cache deltas must still add up — every lookup any machine
  // performed is counted exactly once, so hits + misses summed over all
  // words equals the total lookups of the whole batch, independent of
  // thread count and publish schedule.
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  GrammarAnalysis A(G, S);
  PredictionTables Tables(G, A);

  auto TotalLookups = [&](uint32_t Interval) {
    SharedSllCache Shared(CacheBackend::Hashed);
    // Deterministic word claim order (single "thread" loop) with the
    // publish/adopt cadence of a real batch: this isolates the counter
    // accounting from scheduling nondeterminism.
    SllCache Local = *Shared.snapshot();
    uint64_t Sum = 0;
    uint32_t Since = 0;
    DerivationSampler Sampler(A, 11);
    for (int I = 0; I < 32; ++I) {
      Word W = Sampler.sampleWord(S, 6);
      Machine M(G, Tables, S, W, withBackend(CacheBackend::Hashed), &Local);
      (void)M.run();
      Sum += M.stats().CacheHits + M.stats().CacheMisses;
      if (++Since >= Interval) {
        Since = 0;
        Shared.publish(Local);
        std::shared_ptr<const SllCache> Snap = Shared.snapshot();
        if (Snap->numStates() + Snap->numTransitions() >
            Local.numStates() + Local.numTransitions()) {
          uint64_t OwnHits = Local.Hits, OwnMisses = Local.Misses;
          Local = *Snap;
          Local.Hits = OwnHits;
          Local.Misses = OwnMisses;
        }
      }
    }
    // All per-parse deltas sum to the thread's own counters: nothing was
    // double-counted or lost across the publish/adopt boundary.
    EXPECT_EQ(Sum, Local.Hits + Local.Misses);
    return Sum;
  };

  // The per-word lookup total is also invariant to the publish cadence.
  uint64_t Every2 = TotalLookups(2);
  uint64_t Every8 = TotalLookups(8);
  EXPECT_EQ(Every2, Every8);
}

TEST(SharedCacheCopies, SnapshotExchangeDoesNotRecopyUnchangedStates) {
  // Regression test for the chunked copy-on-write DfaStateTable: copying a
  // cache (seed, publish, adopt) used to deep-copy every DFA state, so the
  // cost of a publish/adopt cycle scaled with cache size. Now a copy moves
  // chunk pointers, and at most one partially-filled chunk (< 64 states)
  // is ever re-copied — when the copy first diverges from its ancestor.
  lang::Language L = lang::makeLanguage(lang::LangId::Dot);
  const Grammar &G = L.G;
  NonterminalId S = L.Start;
  GrammarAnalysis A(G, S);
  PredictionTables Tables(G, A);
  DerivationSampler Sampler(A, 3);

  // Warm a multi-chunk cache (DOT reaches ~100 DFA states, the largest of
  // the built-in language grammars: one full 64-state chunk plus a partial
  // tail).
  SharedSllCache Shared(CacheBackend::Hashed);
  SllCache Local = *Shared.snapshot();
  for (int I = 0; I < 120; ++I) {
    Word W = Sampler.sampleWord(S, 12);
    if (W.size() > 600)
      continue;
    Machine M(G, Tables, S, W, withBackend(CacheBackend::Hashed), &Local);
    (void)M.run();
  }
  ASSERT_GT(Local.numStates(), 96u)
      << "warmup too small to distinguish O(chunk) from O(states)";
  // Each machine above parsed in its own private arena, now destroyed.
  expectNoArenaNodes(Local);

  // A full publish + snapshot + adopt cycle on the warmed cache.
  SllCache::DfaState::copies() = 0;
  ASSERT_TRUE(Shared.publish(Local));
  SllCache Adopted = *Shared.snapshot();
  uint64_t ExchangeCopies = SllCache::DfaState::copies();
  EXPECT_LE(ExchangeCopies, 64u)
      << "publish/adopt re-copied unchanged DFA states";

  // A no-op publish (not warmer) must copy nothing at all.
  SllCache::DfaState::copies() = 0;
  EXPECT_FALSE(Shared.publish(Adopted));
  EXPECT_EQ(SllCache::DfaState::copies(), 0u);

  // The adopted copy stays fully usable, and warming it further touches at
  // most the shared partial tail chunk.
  SllCache::DfaState::copies() = 0;
  for (int I = 0; I < 10; ++I) {
    Word W = Sampler.sampleWord(S, 10);
    Machine M(G, Tables, S, W, withBackend(CacheBackend::Hashed), &Adopted);
    (void)M.run();
  }
  uint64_t DivergenceCopies = SllCache::DfaState::copies();
  EXPECT_LT(DivergenceCopies, 64u)
      << "diverging from a snapshot re-copied more than one chunk";
  expectCanonicalStates(Adopted);
  expectNoArenaNodes(Adopted);
}
