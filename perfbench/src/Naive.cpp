//===- Naive.cpp - The naive -O3 time loops (speed-of-light reference) ----===//
//
// Built at -O3 by the same compiler as the rest of the benchmark (see
// CMakeLists.txt). Each loop evaluates a point in exactly the operation
// order of the gallery statement (left-associated sums, constant times
// sum), without -ffast-math, so the compiler may vectorize across points
// but never reassociate within one: results stay bit-exact. The
// coefficient is read from the program itself, because a program parsed
// from StencilProgram::str() text carries the printed (six-decimal)
// constant, not the gallery's exact one.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "ir/StencilExpr.h"

#include <cassert>

using namespace perfbench;
using namespace hextile;

namespace {

/// The constant factor C of a statement of the form C * (sum of reads).
float coefficient(const ir::StencilProgram &P) {
  return P.stmts()[0].RHS.lhs()->constantValue();
}

void jacobi2d(const ir::StencilProgram &P, FlatFields &F) {
  const int64_t N0 = P.spaceSizes()[0], N1 = P.spaceSizes()[1];
  const int64_t Lo0 = P.loHalo(0), Hi0 = N0 - P.hiHalo(0);
  const int64_t Lo1 = P.loHalo(1), Hi1 = N1 - P.hiHalo(1);
  const float C = coefficient(P);
  for (int64_t T = 0; T < P.timeSteps(); ++T) {
    const float *__restrict In = F.slot(0, T - 1);
    float *__restrict Out = F.slot(0, T);
    for (int64_t I = Lo0; I < Hi0; ++I) {
      const float *Row = In + I * N1;
      float *Dst = Out + I * N1;
      for (int64_t J = Lo1; J < Hi1; ++J)
        Dst[J] = C * ((((Row[J] + Row[J + 1]) + Row[J - 1]) + Row[J + N1]) +
                      Row[J - N1]);
    }
  }
}

void heat3d(const ir::StencilProgram &P, FlatFields &F) {
  const int64_t N0 = P.spaceSizes()[0], N1 = P.spaceSizes()[1],
                N2 = P.spaceSizes()[2];
  const int64_t Lo0 = P.loHalo(0), Hi0 = N0 - P.hiHalo(0);
  const int64_t Lo1 = P.loHalo(1), Hi1 = N1 - P.hiHalo(1);
  const int64_t Lo2 = P.loHalo(2), Hi2 = N2 - P.hiHalo(2);
  const int64_t S0 = N1 * N2, S1 = N2;
  const float C = coefficient(P);
  for (int64_t T = 0; T < P.timeSteps(); ++T) {
    const float *__restrict In = F.slot(0, T - 1);
    float *__restrict Out = F.slot(0, T);
    for (int64_t I = Lo0; I < Hi0; ++I)
      for (int64_t J = Lo1; J < Hi1; ++J) {
        const float *Q = In + I * S0 + J * S1;
        float *Dst = Out + I * S0 + J * S1;
        for (int64_t K = Lo2; K < Hi2; ++K) {
          // Offsets in the gallery's (i, j, k) loop order, starting from
          // (-1, -1, -1).
          float Sum = Q[K - S0 - S1 - 1];
          Sum = Sum + Q[K - S0 - S1];
          Sum = Sum + Q[K - S0 - S1 + 1];
          Sum = Sum + Q[K - S0 - 1];
          Sum = Sum + Q[K - S0];
          Sum = Sum + Q[K - S0 + 1];
          Sum = Sum + Q[K - S0 + S1 - 1];
          Sum = Sum + Q[K - S0 + S1];
          Sum = Sum + Q[K - S0 + S1 + 1];
          Sum = Sum + Q[K - S1 - 1];
          Sum = Sum + Q[K - S1];
          Sum = Sum + Q[K - S1 + 1];
          Sum = Sum + Q[K - 1];
          Sum = Sum + Q[K];
          Sum = Sum + Q[K + 1];
          Sum = Sum + Q[K + S1 - 1];
          Sum = Sum + Q[K + S1];
          Sum = Sum + Q[K + S1 + 1];
          Sum = Sum + Q[K + S0 - S1 - 1];
          Sum = Sum + Q[K + S0 - S1];
          Sum = Sum + Q[K + S0 - S1 + 1];
          Sum = Sum + Q[K + S0 - 1];
          Sum = Sum + Q[K + S0];
          Sum = Sum + Q[K + S0 + 1];
          Sum = Sum + Q[K + S0 + S1 - 1];
          Sum = Sum + Q[K + S0 + S1];
          Sum = Sum + Q[K + S0 + S1 + 1];
          Dst[K] = C * Sum;
        }
      }
  }
}

bool isSingleFieldStencil(const ir::StencilProgram &P, unsigned Rank,
                          size_t Reads) {
  if (P.spaceRank() != Rank || P.fields().size() != 1 ||
      P.numStmts() != 1 || P.stmts()[0].Reads.size() != Reads ||
      P.bufferDepth(0) != 2)
    return false;
  const ir::StencilExpr &RHS = P.stmts()[0].RHS;
  return RHS.kind() == ir::ExprKind::Mul &&
         RHS.lhs()->kind() == ir::ExprKind::ConstF32;
}

} // namespace

bool perfbench::hasNaiveLoop(const ir::StencilProgram &P) {
  return (P.name() == "jacobi2d" && isSingleFieldStencil(P, 2, 5)) ||
         (P.name() == "heat3d" && isSingleFieldStencil(P, 3, 27));
}

void perfbench::runNaive(const ir::StencilProgram &P, FlatFields &F) {
  assert(hasNaiveLoop(P) && "no naive loop for this program");
  if (P.name() == "jacobi2d")
    jacobi2d(P, F);
  else
    heat3d(P, F);
}
