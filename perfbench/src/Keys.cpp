//===- Keys.cpp - Schedule keys of the five families ----------------------===//

#include "Keys.h"

#include "baselines/DiamondTiling.h"
#include "core/ClassicalTiling.h"
#include "core/HexSchedule.h"
#include "core/HybridSchedule.h"
#include "support/MathExt.h"

#include <algorithm>
#include <memory>

using namespace perfbench;
using namespace hextile;

const char *perfbench::familyName(Family F) {
  switch (F) {
  case Family::Hex:
    return "hex";
  case Family::Hybrid:
    return "hybrid";
  case Family::Classical:
    return "classical";
  case Family::Diamond:
    return "diamond";
  case Family::Overlapped:
    return "overlapped";
  }
  return "?";
}

core::HexTileParams
perfbench::legalHexParams(const Tiling &T,
                          const std::vector<deps::ConeBounds> &Cones) {
  const Rational &D0 = Cones[0].Delta0, &D1 = Cones[0].Delta1;
  int64_t W0 =
      std::max(T.W0, core::HexTileParams::minWidth(D0, D1, T.H).ceil());
  return core::HexTileParams(T.H, W0, D0, D1);
}

FamilyKey perfbench::makeFamilyKey(const ir::StencilProgram &P, Family F,
                                   const Tiling &T,
                                   const std::vector<deps::ConeBounds> &Cones) {
  unsigned Rank = P.spaceRank();
  FamilyKey K;
  switch (F) {
  case Family::Hex: {
    // [T, phase, a | S0, b, s1..]: blocks (S0) and points at equal local
    // time a are parallel.
    auto Hex = std::make_shared<core::HexSchedule>(legalHexParams(T, Cones));
    K.ParallelFrom = 3;
    K.Key = [Hex, Rank](std::span<const int64_t> Pt,
                        std::vector<int64_t> &Key) {
      core::HexTileCoord C = Hex->locate(Pt[0], Pt[1]);
      Key.insert(Key.end(), {C.T, C.Phase, C.A, C.S0, C.B});
      for (unsigned D = 1; D < Rank; ++D)
        Key.push_back(Pt[D + 1]);
    };
    return K;
  }
  case Family::Hybrid: {
    std::vector<int64_t> Widths(Rank - 1, T.Inner);
    std::vector<Rational> Slopes;
    for (unsigned D = 1; D < Rank; ++D)
      Slopes.push_back(Cones[D].Delta1);
    auto Sched = std::make_shared<core::HybridSchedule>(
        legalHexParams(T, Cones), Widths, Slopes);
    // [T, p | S0 blocks, S1..Sn, t' | s0'..sn' threads] (Sec. 4.1).
    K.ParallelFrom = 3 + static_cast<int>(Rank);
    K.Key = [Sched, Rank](std::span<const int64_t> Pt,
                          std::vector<int64_t> &Key) {
      core::HybridVector V = Sched->map(Pt);
      Key.insert(Key.end(), {V.T, V.Phase, V.S[0]});
      for (unsigned D = 1; D < Rank; ++D)
        Key.push_back(V.S[D]);
      Key.push_back(V.LocalT);
      Key.insert(Key.end(), V.LocalS.begin(), V.LocalS.end());
    };
    return K;
  }
  case Family::Classical: {
    int64_t Period = 2 * T.H + 2;
    auto Tilings = std::make_shared<std::vector<core::ClassicalTiling>>();
    for (unsigned D = 0; D < Rank; ++D)
      Tilings->emplace_back(D == 0 ? T.W0 : T.Inner, Cones[D].Delta1, Period);
    // [band, S0..Sn, u | locals]: equal keys are parallel points.
    K.ParallelFrom = 2 + static_cast<int>(Rank);
    K.Key = [Tilings, Rank, Period](std::span<const int64_t> Pt,
                                    std::vector<int64_t> &Key) {
      int64_t U = euclidMod(Pt[0], Period);
      Key.push_back(floorDiv(Pt[0], Period));
      for (unsigned D = 0; D < Rank; ++D)
        Key.push_back((*Tilings)[D].tileIndex(Pt[D + 1], U));
      Key.push_back(U);
      for (unsigned D = 0; D < Rank; ++D)
        Key.push_back((*Tilings)[D].localIndex(Pt[D + 1], U));
    };
    return K;
  }
  case Family::Diamond: {
    if (Cones[0].Delta0 > Rational(1) || Cones[0].Delta1 > Rational(1)) {
      K.Skipped = "diamond tiling needs cone slopes <= 1, got " +
                  Cones[0].str();
      return K;
    }
    auto Diamond =
        std::make_shared<baselines::DiamondTiling>(T.DiamondPeriod);
    // [A-B wavefront, A, t | s..]: tiles of one wavefront are parallel.
    K.ParallelFrom = 3;
    K.Key = [Diamond, Rank](std::span<const int64_t> Pt,
                            std::vector<int64_t> &Key) {
      int64_t A = 0, B = 0;
      Diamond->locate(Pt[0], Pt[1], A, B);
      Key.insert(Key.end(), {A - B, A, Pt[0]});
      for (unsigned D = 0; D < Rank; ++D)
        Key.push_back(Pt[D + 1]);
    };
    return K;
  }
  case Family::Overlapped:
    return K;
  }
  return K;
}

exec::ScheduleKeyIntoFn perfbench::spaceMajorKey(unsigned Rank) {
  return [Rank](std::span<const int64_t> Pt, std::vector<int64_t> &Key) {
    for (unsigned D = 0; D < Rank; ++D)
      Key.push_back(Pt[D + 1]);
    Key.push_back(Pt[0]);
  };
}
