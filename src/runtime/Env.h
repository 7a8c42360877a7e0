//===- runtime/Env.h - Attribute environments -------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The environment E of the parsing semantics: a map from attribute names
/// to integer values. Slots stay in one flat insertion-ordered vector (the
/// layout frozen nodes copy), but every get/set resolves through a
/// generation-stamped direct map from interned symbol to slot position
/// (ipg_rt::SlotIndex, shared with the generated parsers' frames) — O(1)
/// instead of the linear scan attribute-heavy rules used to pay per
/// access, and clear() stays O(1) too (a generation bump, not a sweep).
///
/// Env is the *mutable* environment a frame builds while executing an
/// alternative; the interpreter reuses Env storage across alternatives and
/// parses (clear() keeps capacity). Finished nodes carry an immutable
/// arena-frozen copy instead (ipg_rt::EnvView), which is why the slot type
/// is the tree's trivially-copyable ipg_rt::EnvSlot.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_ENV_H
#define IPG_RUNTIME_ENV_H

#include "support/GenRuntime.h"
#include "support/Interner.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace ipg {

using ipg_rt::EnvSlot;

class Env {
public:
  std::optional<int64_t> get(Symbol S) const {
    uint32_t I = 0;
    if (!Index.lookup(S, I))
      return std::nullopt;
    return Slots[I].Value;
  }

  /// Inserts or overwrites.
  void set(Symbol S, int64_t V) {
    uint32_t I = 0;
    if (Index.lookup(S, I)) {
      Slots[I].Value = V;
      return;
    }
    Index.record(S, static_cast<uint32_t>(Slots.size()));
    Slots.push_back({S, V});
  }

  /// Removes the binding; returns whether it existed.
  bool erase(Symbol S) {
    uint32_t I = 0;
    if (!Index.lookup(S, I))
      return false;
    Slots.erase(Slots.begin() + I);
    Index.forget(S);
    for (uint32_t J = I; J < Slots.size(); ++J)
      Index.record(Slots[J].Key, J); // reseat the slots the erase slid down
    return true;
  }

  /// Drops all bindings but keeps capacity (scratch reuse in the
  /// interpreter's frame pool). O(1): the index clears by generation.
  void clear() {
    Slots.clear();
    Index.clear();
  }

  size_t size() const { return Slots.size(); }
  const EnvSlot *data() const { return Slots.data(); }
  auto begin() const { return Slots.begin(); }
  auto end() const { return Slots.end(); }

private:
  std::vector<EnvSlot> Slots;
  ipg_rt::SlotIndex Index;
};

} // namespace ipg

#endif // IPG_RUNTIME_ENV_H
