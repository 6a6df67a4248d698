//===- HexagonPolyhedralTest.cpp - Geometry vs. substrate cross-checks --------===//
//
// Ties the two layers together: the hexagon's hand-derived row ranges and
// point counts must agree with what the generic polyhedral machinery
// (LoopNest enumeration, IntegerSet counting, LP bounds) computes from the
// same constraint system.
//
//===----------------------------------------------------------------------===//

#include "core/HexagonGeometry.h"
#include "poly/LinearProgram.h"
#include "poly/LoopNest.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::core;

namespace {

using HexTuple = std::tuple<int, int, int, int>;

class HexagonCrossCheck : public ::testing::TestWithParam<HexTuple> {
protected:
  HexTileParams params() const {
    auto [H, W0, N1, D1] = GetParam();
    return HexTileParams(H, W0, Rational(1), Rational(N1, D1));
  }
};

} // namespace

TEST_P(HexagonCrossCheck, CountMatchesIntegerSet) {
  HexagonGeometry G(params());
  EXPECT_EQ(G.pointsPerTile(), G.shape().countPoints());
}

TEST_P(HexagonCrossCheck, RowRangesMatchLoopNest) {
  HexagonGeometry G(params());
  poly::LoopNest Nest(G.shape());
  // The nest's per-a bounds must reproduce rowRange.
  for (int64_t A = 0; A <= 2 * params().H + 1; ++A) {
    int64_t Lo, Hi;
    G.rowRange(A, Lo, Hi);
    if (Lo > Hi)
      continue;
    int64_t Outer[1] = {A};
    EXPECT_EQ(Nest.dims()[1].lowerAt(std::span<const int64_t>(Outer, 1)),
              Lo)
        << "a=" << A;
    EXPECT_EQ(Nest.dims()[1].upperAt(std::span<const int64_t>(Outer, 1)),
              Hi)
        << "a=" << A;
  }
}

TEST_P(HexagonCrossCheck, LPBoundsMatchGeometry) {
  HexagonGeometry G(params());
  // max/min of b over the shape must agree with minB/maxB (rational optima
  // rounded toward the interior).
  poly::AffineExpr B = poly::AffineExpr::dim(2, 1);
  poly::LPResult Max = poly::maximize(G.shape(), B);
  poly::LPResult Min = poly::minimize(G.shape(), B);
  ASSERT_TRUE(Max.isOptimal());
  ASSERT_TRUE(Min.isOptimal());
  EXPECT_GE(Max.Value.floor(), G.maxB()); // Rational relaxation >= integer.
  EXPECT_LE(Min.Value.ceil(), G.minB());
  EXPECT_LE(Rational(G.maxB()), Max.Value);
  EXPECT_GE(Rational(G.minB()), Min.Value);
}

TEST_P(HexagonCrossCheck, EnumerationVisitsExactlyTheShape) {
  HexagonGeometry G(params());
  int64_t Visited = 0;
  G.shape().enumerate([&](std::span<const int64_t> Pt) {
    EXPECT_TRUE(G.contains(Pt[0], Pt[1]));
    ++Visited;
    return true;
  });
  EXPECT_EQ(Visited, G.pointsPerTile());
}

TEST_P(HexagonCrossCheck, RowTableMatchesPolyhedralShape) {
  // The table-backed membership must agree with the IntegerSet reference at
  // every point of the phase box, plus a one-cell margin around it.
  HexagonGeometry G(params());
  for (int64_t A = -1; A <= params().timePeriod(); ++A)
    for (int64_t B = -1; B <= params().spacePeriod(); ++B) {
      int64_t Pt[2] = {A, B};
      EXPECT_EQ(G.contains(A, B), G.shape().contains(Pt))
          << "a=" << A << " b=" << B;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HexagonCrossCheck,
    ::testing::Values(std::make_tuple(1, 1, 1, 1),
                      std::make_tuple(2, 3, 1, 1),
                      std::make_tuple(2, 3, 2, 1),
                      std::make_tuple(3, 2, 1, 2),
                      std::make_tuple(4, 5, 3, 2),
                      std::make_tuple(2, 2, 0, 1)),
    [](const ::testing::TestParamInfo<HexTuple> &I) {
      return "h" + std::to_string(std::get<0>(I.param)) + "w" +
             std::to_string(std::get<1>(I.param)) + "d" +
             std::to_string(std::get<2>(I.param)) + "_" +
             std::to_string(std::get<3>(I.param));
    });
