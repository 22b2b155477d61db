//===- adt/HashIndex.h - Open-addressing hash indexes ----------*- C++ -*-===//
//
// Part of the CoStar-C++ project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat open-addressing hash indexes for the SLL DFA cache's Hashed
/// backend. The paper's profile (Section 6.1) shows ordered-map key
/// comparisons dominating CoStar's runtime on large grammars; these
/// structures replace the O(log n) comparison chains of the FMapAVL-style
/// substrate with O(1) expected probes:
///
///  - HashIndex:  uint64 key -> uint32 value (DFA transitions and start
///    states).
///  - IdIndex:    hash -> dense id, with the caller's equality test (DFA
///    states; also the snapshot decoder's node table and the ATN
///    baseline's contexts). It stores no keys: a state's identity is its
///    shared sim stacks, compared in place on a hash match.
///
/// Both use power-of-two capacities and linear probing. HashIndex spreads
/// the sequential ids the cache produces with a splitmix64 bit-mixer;
/// IdIndex takes the caller's hash, which is already mixed.
/// Probes are counted in ComparisonCounters::hashProbe() so the Section 6.1
/// profile harness can report both cost families side by side.
///
//===----------------------------------------------------------------------===//

#ifndef COSTAR_ADT_HASHINDEX_H
#define COSTAR_ADT_HASHINDEX_H

#include "adt/Instrument.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace costar {
namespace adt {

/// Fibonacci/splitmix-style 64-bit finalizer: a cheap bijection whose
/// output bits all depend on all input bits.
inline uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// An open-addressing map from uint64 keys to uint32 values. Values must
/// not equal EmptyValue (the slot sentinel); the DFA cache stores dense
/// state ids, which never reach it.
class HashIndex {
public:
  static constexpr uint32_t EmptyValue = UINT32_MAX;

private:
  struct Slot {
    uint64_t Key = 0;
    uint32_t Value = EmptyValue;
  };
  std::vector<Slot> Slots;
  uint64_t Count = 0;

  size_t probeStart(uint64_t Key) const {
    return static_cast<size_t>(mix64(Key)) & (Slots.size() - 1);
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : Old.size() * 2, Slot{});
    for (const Slot &S : Old) {
      if (S.Value == EmptyValue)
        continue;
      size_t I = probeStart(S.Key);
      while (Slots[I].Value != EmptyValue)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = S;
    }
  }

public:
  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// \returns a pointer to the value bound to \p Key, or nullptr.
  const uint32_t *find(uint64_t Key) const {
    if (Slots.empty())
      return nullptr;
    size_t I = probeStart(Key);
    for (;;) {
      ++ComparisonCounters::hashProbe();
      const Slot &S = Slots[I];
      if (S.Value == EmptyValue)
        return nullptr;
      if (S.Key == Key)
        return &S.Value;
      I = (I + 1) & (Slots.size() - 1);
    }
  }

  /// Visits every (key, value) binding. The visit order is PROBE order —
  /// a function of the hash seed, table capacity, and insertion history —
  /// so it is not stable across table growth and must never leak into
  /// serialized artifacts. Callers that need reproducible bytes (the
  /// snapshot writer) collect the bindings and sort by key; SllCache's
  /// forEachTransition/forEachStart do exactly that.
  template <typename FnT> void forEach(FnT Fn) const {
    for (const Slot &S : Slots)
      if (S.Value != EmptyValue)
        Fn(S.Key, S.Value);
  }

  /// Binds \p Key to \p Value. \p Key must not already be present.
  void insert(uint64_t Key, uint32_t Value) {
    assert(Value != EmptyValue && "value collides with the empty sentinel");
    assert(!find(Key) && "duplicate key in HashIndex");
    if (Slots.empty() || (Count + 1) * 10 >= Slots.size() * 7)
      grow();
    size_t I = probeStart(Key);
    while (Slots[I].Value != EmptyValue) {
      ++ComparisonCounters::hashProbe();
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = Slot{Key, Value};
    ++Count;
  }
};

/// Assigns dense ids (0, 1, 2, ... in insertion order) to items the
/// caller stores, indexed by a caller-computed 64-bit hash. The index keeps
/// only (hash, id) slots, never the items: a lookup probes the slots and,
/// on a hash match, asks the caller's equality test whether the item with
/// that id is the one sought. The SLL cache's items are DFA states whose
/// identity is their shared sim stacks, so no serialized copy of them
/// exists anywhere.
class IdIndex {
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Id = HashIndex::EmptyValue;
  };
  std::vector<Slot> Slots;
  uint32_t Count = 0;

  size_t probeStart(uint64_t Hash) const {
    return static_cast<size_t>(Hash) & (Slots.size() - 1);
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : Old.size() * 2, Slot{});
    for (const Slot &S : Old) {
      if (S.Id == HashIndex::EmptyValue)
        continue;
      size_t I = probeStart(S.Hash);
      while (Slots[I].Id != HashIndex::EmptyValue)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = S;
    }
  }

public:
  uint32_t size() const { return Count; }

  /// \returns the id of the item with hash \p Hash for which \p Equals(id)
  /// holds, or nullptr when there is none. \p Equals is called only on
  /// ids whose stored hash matches.
  template <typename EqualsT>
  const uint32_t *find(uint64_t Hash, EqualsT &&Equals) const {
    if (Slots.empty())
      return nullptr;
    size_t I = probeStart(Hash);
    for (;;) {
      ++ComparisonCounters::hashProbe();
      const Slot &S = Slots[I];
      if (S.Id == HashIndex::EmptyValue)
        return nullptr;
      if (S.Hash == Hash && Equals(S.Id))
        return &S.Id;
      I = (I + 1) & (Slots.size() - 1);
    }
  }

  /// Indexes the next dense id under \p Hash and returns it. The caller
  /// must have checked with find() that the item is not yet present.
  uint32_t insert(uint64_t Hash) {
    if (Slots.empty() || (Count + 1) * 10 >= Slots.size() * 7)
      grow();
    size_t I = probeStart(Hash);
    while (Slots[I].Id != HashIndex::EmptyValue) {
      ++ComparisonCounters::hashProbe();
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = Slot{Hash, Count};
    return Count++;
  }
};

} // namespace adt
} // namespace costar

#endif // COSTAR_ADT_HASHINDEX_H
