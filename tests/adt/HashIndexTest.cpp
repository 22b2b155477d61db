//===- tests/adt/HashIndexTest.cpp -------------------------------------------===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and reference-model tests for the open-addressing indexes backing
/// the Hashed SLL-cache backend (adt/HashIndex.h).
///
//===----------------------------------------------------------------------===//

#include "adt/HashIndex.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

using namespace costar::adt;

TEST(HashIndex, EmptyFindsNothing) {
  HashIndex Idx;
  EXPECT_EQ(Idx.size(), 0u);
  EXPECT_TRUE(Idx.empty());
  EXPECT_EQ(Idx.find(0), nullptr);
  EXPECT_EQ(Idx.find(UINT64_MAX), nullptr);
}

TEST(HashIndex, InsertFindRoundTrip) {
  HashIndex Idx;
  Idx.insert(42, 7);
  ASSERT_NE(Idx.find(42), nullptr);
  EXPECT_EQ(*Idx.find(42), 7u);
  EXPECT_EQ(Idx.find(43), nullptr);
  EXPECT_EQ(Idx.size(), 1u);
}

TEST(HashIndex, MatchesReferenceMapThroughGrowth) {
  // Keys shaped like DFA transition keys: (state << 32) | terminal, with
  // dense sequential states — the adversarial case for a weak mixer.
  HashIndex Idx;
  std::map<uint64_t, uint32_t> Ref;
  std::mt19937_64 Rng(123);
  for (uint32_t State = 0; State < 500; ++State) {
    for (uint32_t T = 0; T < 4; ++T) {
      uint64_t Key = (static_cast<uint64_t>(State) << 32) | T;
      uint32_t Value = static_cast<uint32_t>(Rng() % 1000000);
      Idx.insert(Key, Value);
      Ref[Key] = Value;
    }
  }
  EXPECT_EQ(Idx.size(), Ref.size());
  for (const auto &[Key, Value] : Ref) {
    ASSERT_NE(Idx.find(Key), nullptr) << Key;
    EXPECT_EQ(*Idx.find(Key), Value) << Key;
  }
  for (int I = 0; I < 1000; ++I) {
    uint64_t Probe = Rng();
    const uint32_t *Found = Idx.find(Probe);
    auto It = Ref.find(Probe);
    EXPECT_EQ(Found != nullptr, It != Ref.end());
  }
}

TEST(HashIndex, CountsProbes) {
  ComparisonCounters::reset();
  HashIndex Idx;
  Idx.insert(1, 1);
  (void)Idx.find(1);
  EXPECT_GT(ComparisonCounters::hashProbe(), 0u);
  ComparisonCounters::reset();
  EXPECT_EQ(ComparisonCounters::hashProbe(), 0u);
}

namespace {

/// Items an IdIndex indexes live with the caller; these tests keep them in
/// a vector whose positions are the ids.
struct Items {
  std::vector<std::vector<uint32_t>> Stored;

  auto equalsFn(const std::vector<uint32_t> &Key) const {
    return [this, &Key](uint32_t Id) { return Stored[Id] == Key; };
  }
  static uint64_t hashOf(const std::vector<uint32_t> &Key) {
    uint64_t H = 0x243F6A8885A308D3ull;
    for (uint32_t W : Key)
      H = mix64(H ^ W);
    return H;
  }
};

} // namespace

TEST(IdIndex, AssignsDenseIdsInInsertionOrder) {
  IdIndex Idx;
  Items It;
  It.Stored = {{1, 2, 3}, {1, 2}, {}};
  for (uint32_t Id = 0; Id < It.Stored.size(); ++Id) {
    ASSERT_EQ(Idx.find(Items::hashOf(It.Stored[Id]),
                       It.equalsFn(It.Stored[Id])),
              nullptr);
    EXPECT_EQ(Idx.insert(Items::hashOf(It.Stored[Id])), Id);
  }
  EXPECT_EQ(Idx.size(), 3u);
  for (uint32_t Id = 0; Id < It.Stored.size(); ++Id) {
    const uint32_t *Found =
        Idx.find(Items::hashOf(It.Stored[Id]), It.equalsFn(It.Stored[Id]));
    ASSERT_NE(Found, nullptr);
    EXPECT_EQ(*Found, Id);
  }
}

TEST(IdIndex, CallerEqualityResolvesHashCollisions) {
  // Every item under one hash: only the caller's equality test tells them
  // apart, and it is asked only about ids whose hash matches.
  IdIndex Idx;
  Items It;
  It.Stored = {{5}, {5, 5}, {5, 5, 5}, {5, 0}, {0, 5}};
  constexpr uint64_t Collide = 0xC0FFEE;
  for (uint32_t Id = 0; Id < It.Stored.size(); ++Id) {
    ASSERT_EQ(Idx.find(Collide, It.equalsFn(It.Stored[Id])), nullptr);
    EXPECT_EQ(Idx.insert(Collide), Id);
  }
  for (uint32_t Id = 0; Id < It.Stored.size(); ++Id) {
    const uint32_t *Found = Idx.find(Collide, It.equalsFn(It.Stored[Id]));
    ASSERT_NE(Found, nullptr);
    EXPECT_EQ(*Found, Id);
  }
  std::vector<uint32_t> Absent{0};
  EXPECT_EQ(Idx.find(Collide, It.equalsFn(Absent)), nullptr);

  // A distinct hash never consults the equality test.
  int Calls = 0;
  EXPECT_EQ(Idx.find(Collide + 1,
                     [&](uint32_t) {
                       ++Calls;
                       return true;
                     }),
            nullptr);
  EXPECT_EQ(Calls, 0);
}

TEST(IdIndex, IdsStayDenseThroughGrowth) {
  // Few hash values among many items: collisions chain across every
  // capacity doubling, and ids must still come back dense and exact.
  IdIndex Idx;
  Items It;
  std::mt19937_64 Rng(7);
  for (uint32_t I = 0; I < 2000; ++I) {
    std::vector<uint32_t> Key;
    uint32_t Len = Rng() % 12;
    for (uint32_t J = 0; J < Len; ++J)
      Key.push_back(static_cast<uint32_t>(Rng() % 64));
    uint64_t Hash = Items::hashOf(Key) % 97;
    if (Idx.find(Hash, It.equalsFn(Key)))
      continue;
    ASSERT_EQ(Idx.insert(Hash), It.Stored.size());
    It.Stored.push_back(std::move(Key));
  }
  ASSERT_GT(It.Stored.size(), 1000u);
  EXPECT_EQ(Idx.size(), It.Stored.size());
  for (uint32_t Id = 0; Id < It.Stored.size(); ++Id) {
    const uint32_t *Found = Idx.find(Items::hashOf(It.Stored[Id]) % 97,
                                     It.equalsFn(It.Stored[Id]));
    ASSERT_NE(Found, nullptr);
    EXPECT_EQ(*Found, Id);
  }
}
