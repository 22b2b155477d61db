//===- tests/core/PredictionTest.cpp ----------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the prediction mechanism (Section 3.4): LL prediction,
/// SLL prediction with its static stable-return tables and DFA cache, and
/// the adaptivePredict failover policy, including the overapproximation
/// property behind Lemma 5.4 (SLL viable alternatives are a superset of LL
/// viable alternatives).
///
//===----------------------------------------------------------------------===//

#include "core/Prediction.h"

#include "../RandomGrammar.h"
#include "../TestGrammars.h"
#include "core/Parser.h"
#include "grammar/Sampler.h"

#include <gtest/gtest.h>

using namespace costar;
using namespace costar::test;

namespace {

/// A minimal machine-stack context: the bottom frame with the start symbol
/// still unprocessed (as at the machine's first push decision).
struct StartContext {
  std::vector<Symbol> StartSyms;
  std::vector<Frame> Stack;
  StartContext(NonterminalId Start)
      : StartSyms({Symbol::nonterminal(Start)}) {
    Stack.push_back(Frame{InvalidProductionId, &StartSyms, 0, {}});
  }
};

/// Sign of the lexicographic comparison of \p A's and \p B's
/// serializeSubparser words: the order subparserCompare must reproduce.
int serializedCompare(const Subparser &A, const Subparser &B) {
  std::vector<uint32_t> KA, KB;
  serializeSubparser(A, KA);
  serializeSubparser(B, KB);
  if (std::lexicographical_compare(KA.begin(), KA.end(), KB.begin(),
                                   KB.end()))
    return -1;
  return KA == KB ? 0 : 1;
}

int sign(int V) { return (V > 0) - (V < 0); }

} // namespace

TEST(Prediction, LlPicksUniqueViableAlternative) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  StartContext Ctx(S);
  // "a b d" forces S -> A d (production index 1 for S).
  Word W = makeWord(G, "a b d");
  PredictionResult R = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
  ASSERT_EQ(R.ResultKind, PredictionResult::Kind::Unique);
  EXPECT_EQ(R.Prod, G.productionsFor(S)[1]);
}

TEST(Prediction, LlRejectsWhenNoAlternativeViable) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  StartContext Ctx(S);
  Word W = makeWord(G, "c");
  PredictionResult R = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
  EXPECT_EQ(R.ResultKind, PredictionResult::Kind::Reject);
}

TEST(Prediction, LlReportsAmbiguityOnlyAtEndOfInput) {
  Grammar G = figure6Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  StartContext Ctx(S);
  Word W = makeWord(G, "a");
  PredictionResult R = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
  ASSERT_EQ(R.ResultKind, PredictionResult::Kind::Ambig);
  // Resolution favors the earliest-declared alternative (S -> X).
  EXPECT_EQ(R.Prod, G.productionsFor(S)[0]);
}

TEST(Prediction, LlDetectsLeftRecursionInSimulation) {
  Grammar G = makeGrammar("S -> A c\nA -> S b\nA -> b\n");
  NonterminalId S = G.lookupNonterminal("S");
  StartContext Ctx(S);
  Word W = makeWord(G, "b c");
  PredictionResult R = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
  ASSERT_EQ(R.ResultKind, PredictionResult::Kind::Error);
  EXPECT_EQ(R.Err.Kind, ParseErrorKind::LeftRecursive);
}

TEST(Prediction, StableReturnTargetsForFigure2) {
  Grammar G = figure2Grammar();
  GrammarAnalysis A(G, G.lookupNonterminal("S"));
  PredictionTables T(G, A);
  NonterminalId S = G.lookupNonterminal("S");
  NonterminalId ANt = G.lookupNonterminal("A");
  // A occurs in S -> A c (pos 0), S -> A d (pos 0), A -> a A (pos 1, at the
  // rule end, so it inherits A's other... no: it inherits RT(A) itself —
  // the fixpoint resolves the self-edge to A's non-end occurrences).
  const auto &RA = T.returnTargets(ANt);
  EXPECT_EQ(RA.size(), 2u) << "after c and after d";
  for (const SimFrame &F : RA) {
    EXPECT_EQ(F.Pos, 1u);
    EXPECT_EQ(G.production(F.Prod).Lhs, S);
  }
  // S never occurs in a right-hand side: no return targets, but S can end
  // the parse.
  EXPECT_TRUE(T.returnTargets(S).empty());
  EXPECT_TRUE(T.canFinish(S));
  // A cannot be followed by end of input (c or d always follows).
  EXPECT_FALSE(T.canFinish(ANt));
}

TEST(Prediction, CanFinishPropagatesThroughEndOccurrences) {
  Grammar G = makeGrammar("S -> a B\nB -> b C\nC -> c\n");
  GrammarAnalysis A(G, G.lookupNonterminal("S"));
  PredictionTables T(G, A);
  EXPECT_TRUE(T.canFinish(G.lookupNonterminal("S")));
  EXPECT_TRUE(T.canFinish(G.lookupNonterminal("B"))) << "B ends S's rule";
  EXPECT_TRUE(T.canFinish(G.lookupNonterminal("C"))) << "transitively";
}

TEST(Prediction, SllAgreesWithLlOnUnambiguousDecisions) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  NonterminalId ANt = G.lookupNonterminal("A");
  GrammarAnalysis A(G, S);
  PredictionTables T(G, A);
  SllCache Cache;
  StartContext Ctx(S);

  for (const char *Text : {"b c", "a b d", "a a a b c"}) {
    Word W = makeWord(G, Text);
    PredictionResult Sll = sllPredict(G, T, Cache, S, W, 0);
    PredictionResult Ll = llPredict(G, S, Ctx.Stack, VisitedSet(), W, 0);
    ASSERT_EQ(Sll.ResultKind, PredictionResult::Kind::Unique) << Text;
    ASSERT_EQ(Ll.ResultKind, PredictionResult::Kind::Unique) << Text;
    EXPECT_EQ(Sll.Prod, Ll.Prod) << Text;
  }
  (void)ANt;
}

TEST(Prediction, SllCacheHitsGrowOnRepeatedQueries) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  GrammarAnalysis A(G, S);
  PredictionTables T(G, A);
  SllCache Cache;
  Word W = makeWord(G, "a a a a b c");
  (void)sllPredict(G, T, Cache, S, W, 0);
  uint64_t MissesAfterFirst = Cache.Misses;
  EXPECT_GT(MissesAfterFirst, 0u);
  uint64_t HitsAfterFirst = Cache.Hits;
  (void)sllPredict(G, T, Cache, S, W, 0);
  EXPECT_EQ(Cache.Misses, MissesAfterFirst)
      << "second identical query computes nothing new";
  EXPECT_GT(Cache.Hits, HitsAfterFirst);
}

TEST(Prediction, SllOverapproximationForcesFailover) {
  // Context distinguishes the alternatives: inside brackets "l A r", the
  // trailing r belongs to S's rule, so A -> a is forced; at top level
  // "S -> A", A -> a r could consume it. SLL's wildcard stack sees both
  // contexts at once, so both alternatives reach the end of input as final
  // configs and SLL reports Ambig; LL, simulating the real stack, resolves
  // uniquely.
  Grammar G = makeGrammar("S -> A\n"
                          "S -> l A r\n"
                          "A -> a\n"
                          "A -> a r\n");
  NonterminalId S = G.lookupNonterminal("S");
  Parser P(G, S);
  Machine::Stats Stats;
  Word W = makeWord(G, "l a r");
  ParseResult R = P.parse(W, &Stats);
  ASSERT_EQ(R.kind(), ParseResult::Kind::Unique)
      << "LL failover must rescue the SLL ambiguity";
  EXPECT_EQ(R.tree()->toString(G), "(S l (A a) r)");
  EXPECT_GE(Stats.Pred.Failovers, 1u)
      << "SLL alone cannot resolve this decision";

  // Directly observe the SLL-level ambiguity for the A decision.
  GrammarAnalysis Analysis(G, S);
  PredictionTables T(G, Analysis);
  SllCache Cache;
  Word Rest = makeWord(G, "a r");
  PredictionResult Sll =
      sllPredict(G, T, Cache, G.lookupNonterminal("A"), Rest, 0);
  EXPECT_EQ(Sll.ResultKind, PredictionResult::Kind::Ambig);
}

TEST(Prediction, AdaptivePredictTrustsSllUnique) {
  Grammar G = figure2Grammar();
  NonterminalId S = G.lookupNonterminal("S");
  Parser P(G, S);
  Machine::Stats Stats;
  ParseResult R = P.parse(makeWord(G, "a b c"), &Stats);
  ASSERT_EQ(R.kind(), ParseResult::Kind::Unique);
  EXPECT_EQ(Stats.Pred.Failovers, 0u)
      << "unambiguous grammar with distinct follow sets needs no failover";
}

TEST(Prediction, SerializeSubparserDistinguishesStacks) {
  Grammar G = figure2Grammar();
  ProductionId P0 = 0, P1 = 1;
  auto Node = [&](ProductionId P, uint32_t Pos, SimStackPtr Tail) {
    return std::make_shared<SimStackNode>(
        SimFrame{P, &G.production(P).Rhs, Pos}, Tail);
  };
  Subparser A{P0, Node(P0, 0, nullptr), VisitedSet()};
  Subparser B{P0, Node(P0, 1, nullptr), VisitedSet()};
  Subparser C{P0, Node(P0, 0, Node(P1, 0, nullptr)), VisitedSet()};
  Subparser Final{P0, nullptr, VisitedSet()};
  std::vector<uint32_t> KA, KB, KC, KF;
  serializeSubparser(A, KA);
  serializeSubparser(B, KB);
  serializeSubparser(C, KC);
  serializeSubparser(Final, KF);
  EXPECT_NE(KA, KB);
  EXPECT_NE(KA, KC);
  EXPECT_NE(KA, KF);
  EXPECT_NE(KC, KF);
  std::vector<uint32_t> KA2;
  serializeSubparser(A, KA2);
  EXPECT_EQ(KA, KA2) << "serialization is deterministic";
}

TEST(Prediction, SubparserCompareMatchesSerializedOrder) {
  Grammar G = figure2Grammar();
  auto Node = [&](ProductionId P, uint32_t Pos, SimStackPtr Tail) {
    return std::make_shared<SimStackNode>(
        SimFrame{P, &G.production(P).Rhs, Pos}, Tail);
  };
  SimStackPtr Shared = Node(1, 0, Node(2, 1, nullptr));
  // A structurally equal copy of Shared in distinct nodes.
  SimStackPtr Copy = Node(1, 0, Node(2, 1, nullptr));
  std::vector<Subparser> Sps = {
      {0, Node(0, 1, Shared), {}}, // shared tail, different top frame
      {0, Node(0, 0, Shared), {}},
      {0, Node(0, 1, Copy), {}},    // equal to the first, no shared nodes
      {0, Node(0, 1, nullptr), {}}, // same top frame, ends one frame early
      {0, Node(0, 1, Node(1, 0, nullptr)), {}}, // same top, other tail
      {0, Node(0, 1, Node(2, 0, nullptr)), {}},
      {0, Shared, {}},
      {0, nullptr, {}}, // final vs. stable
      {1, nullptr, {}},
      {1, Node(0, 1, Shared), {}},
      {3, Node(3, 0, nullptr), {}},
  };
  for (const Subparser &A : Sps)
    for (const Subparser &B : Sps)
      EXPECT_EQ(sign(subparserCompare(A, B)), serializedCompare(A, B));
  EXPECT_EQ(subparserCompare(Sps[0], Sps[2]), 0)
      << "structurally equal stacks compare equal without sharing";
}

TEST(Prediction, SubparserCompareMatchesSerializedOrderOnRandomGrammars) {
  // Cached DFA states of random grammars supply configs with the sharing
  // closure really produces; compare every pair within and across a few
  // neighbouring states.
  std::mt19937_64 Rng(20261020);
  uint64_t Pairs = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    Grammar G = randomNonLeftRecursiveGrammar(Rng);
    GrammarAnalysis A(G, 0);
    ParseOptions Opts;
    Opts.ReuseCache = true;
    Parser P(G, 0, Opts);
    DerivationSampler Sampler(A, Rng());
    for (int WordTrial = 0; WordTrial < 4; ++WordTrial) {
      Word W = Sampler.sampleWord(0, 5);
      if (W.size() <= 40)
        (void)P.parse(W);
    }
    const SllCache &C = P.sharedCache();
    std::vector<const Subparser *> Configs;
    for (uint32_t Id = 0; Id < C.numStates(); ++Id)
      for (const Subparser &Sp : C.state(Id).Configs)
        Configs.push_back(&Sp);
    for (size_t I = 0; I < Configs.size(); ++I)
      for (size_t J = I; J < Configs.size() && J < I + 24; ++J) {
        ASSERT_EQ(sign(subparserCompare(*Configs[I], *Configs[J])),
                  serializedCompare(*Configs[I], *Configs[J]))
            << G.toString();
        ASSERT_EQ(sign(subparserCompare(*Configs[J], *Configs[I])),
                  serializedCompare(*Configs[J], *Configs[I]))
            << G.toString();
        ++Pairs;
      }
  }
  EXPECT_GT(Pairs, 1000u);
}
