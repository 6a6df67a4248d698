//===- Stats.cpp - Summary statistics of timing samples -------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

Tail perfbench::tailOf(std::vector<double> V) {
  Tail T;
  T.Count = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  // Percentiles in tenths, so the nearest rank is exact integer arithmetic.
  for (size_t P10 : {990, 950, 900, 750, 500}) {
    // Nearest rank: the smallest sample with at least P% of the samples at
    // or below it.
    size_t Rank = std::max<size_t>((P10 * V.size() + 999) / 1000, 1);
    size_t Idx = Rank - 1;
    size_t Beyond = V.size() - 1 - Idx;
    if (Beyond >= MinBeyond) {
      T.Value = V[Idx];
      T.Percentile = static_cast<double>(P10) / 10.0;
      T.Beyond = Beyond;
      return T;
    }
  }
  T.Value = median(V);
  T.Percentile = 50.0;
  T.Beyond = V.size() / 2;
  return T;
}
