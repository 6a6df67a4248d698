//===- Bench.h - Workload interface of the hextile benchmark ---*- C++ -*-===//
//
// Part of the hextile benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload receives (RunConfig) and returns (Result), the
/// fixed metric tables, and a minimal JSON object builder.
///
/// Every workload reports the same five end-to-end metrics (so each metric
/// can be compared on each workload), each with a workload-specific
/// meaning documented in perfbench/README.md:
///   setup_s          median of repeated program set-ups before timing
///   throughput       work items per second of the timed phase
///   latency_p50_ms   median latency of the workload's operation; where
///                    the operations are of several kinds (rows), the
///                    geometric mean of the per-kind medians, because the
///                    median of a multi-modal mixture jumps between modes
///   latency_tail_ms  the pooled latency at the highest ladder percentile
///                    with at least ten samples beyond it
///   peak_rss_mb      peak resident memory of the process
/// The roadmap's per-workload metrics (compile_ms, serial_mpts_s,
/// request_p99_ms, ...) are reported beside them in the text report and
/// the results file.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Host.h"
#include "Trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny sizes that prove only that the code runs; every timing row is
  /// marked "timing": "liveness" and must never be compared.
  bool Liveness = false;
  /// Stop after the set-up: a child process measuring setup_s only.
  bool SetupOnly = false;
  std::string WorkDir; ///< Scratch space inside the checkout.
  HostInfo Host;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Minimal JSON object builder (keys are emitted in insertion order).
class Json {
public:
  Json &num(const std::string &K, double V);
  Json &str(const std::string &K, const std::string &V);
  Json &boolean(const std::string &K, bool V);
  Json &raw(const std::string &K, const std::string &RawJson);
  std::string text() const { return "{" + Body + "}"; }

private:
  void key(const std::string &K);
  std::string Body;
};

/// Renders a number with all its digits (%.17g); non-finite values as 0.
std::string jsonNumber(double V);

struct Result {
  double SetupS = 0;
  double Throughput = 0;              ///< Work items per second.
  std::string ThroughputItem;         ///< What one work item is.
  std::vector<double> LatenciesMs;    ///< One sample per operation.
  /// The same samples grouped by operation kind.
  std::map<std::string, std::vector<double>> LatenciesByKind;
  std::string LatencyOp;              ///< What one operation is.
  /// Per-workload metrics (compile_ms, request_p99_ms, ...), by name.
  std::map<std::string, Metric> Workload;
  /// Per-layer metrics by name (see perLayerMetrics()); absent = 0.
  std::map<std::string, double> Layer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::vector<std::string> Rows; ///< One JSON object per measured row.
  /// The timed windows the top-level spans must cover.
  std::vector<trace::Window> Timed;

  void latency(const std::string &Kind, double Ms) {
    LatenciesMs.push_back(Ms);
    LatenciesByKind[Kind].push_back(Ms);
  }

  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 50)
      Failures.push_back(Why);
  }
};

/// The per-layer metric table: (name, unit), the order BENCHMARK.json
/// lists them in. Every traced run reports every entry; a layer the
/// workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

Result runStencilRun(const RunConfig &C);
Result runServe(const RunConfig &C, bool Warm);
Result runReplayCheck(const RunConfig &C);

/// Seconds between two steady_clock readings.
inline double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
