//===- Keys.h - Schedule keys of the five families -------------*- C++ -*-===//
//
// Part of the hextile benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The appending-form (exec::ScheduleKeyIntoFn) keys replay_check hands to
/// exec::checkScheduleEquivalence, built from the core schedule classes:
/// hexagonal, hybrid, classical and diamond, plus the known-illegal
/// space-major order whose verdict must be "differs". Overlapped tiling has
/// no key (it recomputes instances redundantly) and is replayed through
/// exec::runOverlapped instead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_KEYS_H
#define PERFBENCH_KEYS_H

#include "core/HexTileParams.h"
#include "deps/DeltaBounds.h"
#include "exec/Wavefront.h"
#include "ir/StencilProgram.h"

#include <string>
#include <vector>

namespace perfbench {

enum class Family { Hex, Hybrid, Classical, Diamond, Overlapped };
constexpr Family AllFamilies[] = {Family::Hex, Family::Hybrid,
                                  Family::Classical, Family::Diamond,
                                  Family::Overlapped};
const char *familyName(Family F);

struct Tiling {
  int64_t H = 2;
  int64_t W0 = 4;
  int64_t Inner = 8;         ///< Classical width of every inner dimension.
  int64_t DiamondPeriod = 8;
};

struct FamilyKey {
  hextile::exec::ScheduleKeyIntoFn Key; ///< Empty when skipped / overlapped.
  int ParallelFrom = -1;
  std::string Skipped; ///< Why the family cannot tile this stencil.
};

/// The hexagon parameters with W0 raised to the legal minimum for \p Cones.
hextile::core::HexTileParams
legalHexParams(const Tiling &T,
               const std::vector<hextile::deps::ConeBounds> &Cones);

FamilyKey makeFamilyKey(const hextile::ir::StencilProgram &P, Family F,
                        const Tiling &T,
                        const std::vector<hextile::deps::ConeBounds> &Cones);

/// Iterates space before time: reads values a later step has not
/// written yet, so it must never pass the equivalence check.
hextile::exec::ScheduleKeyIntoFn spaceMajorKey(unsigned Rank);

} // namespace perfbench

#endif // PERFBENCH_KEYS_H
