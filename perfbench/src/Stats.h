//===- Stats.h - Summary statistics of timing samples ----------*- C++ -*-===//
//
// Part of the hextile benchmark (perfbench).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> V);

/// Geometric mean of positive values; 0 when empty or any value <= 0.
double geomean(const std::vector<double> &V);

/// A timing's tail: the highest percentile of the ladder 99, 95, 90, 75, 50
/// whose nearest-rank sample has at least ten samples beyond it. The ladder
/// stops at p99, the serving tail the roadmap gates on: above it this
/// class of shared host's scheduler jitter dominates (a p99.9 over 600
/// samples beyond still spread 42% between runs). With fewer than 20
/// samples no rung qualifies and the tail falls back to the median, with
/// Beyond < 10 saying so.
struct Tail {
  double Value = 0;
  double Percentile = 0;
  size_t Beyond = 0; ///< Samples strictly after the chosen rank.
  size_t Count = 0;
};
Tail tailOf(std::vector<double> V);

/// Minimum number of samples beyond the reported tail percentile.
constexpr size_t MinBeyond = 10;

} // namespace perfbench

#endif // PERFBENCH_STATS_H
