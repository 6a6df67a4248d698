//===- main.cpp - The hextile benchmark entry point -----------------------===//
//
// perfbench --workload <stencil_run|serve_cold|serve_warm|replay_check>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--workdir <dir>] [--out <results.json>]
//           [--trace-out <trace.json>] [--untraced-throughput <x>]
//           [--liveness] [--setup-only]
//
// Runs one workload, checks every output, prints
// a text report and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics (from the span recorder) with
// --trace 1. The full result -- host fingerprint, every row, per-workload
// workload metrics, both metric sets, failures -- goes to --out. Exits 1
// when any check failed.
//
// setup_s is the median over SetupProcesses child runs of this binary with
// --setup-only, each printing the median of its own repeated set-ups: on
// this class of shared host the cost of a set-up that starts threads
// differs by process (about 0.65 or 1.05 ms for a CompileService, stable
// within one process), so repeats inside one process cannot average it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>

using namespace perfbench;

//===----------------------------------------------------------------------===//
// Json and the metric tables.
//===----------------------------------------------------------------------===//

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void Json::key(const std::string &K) {
  if (!Body.empty())
    Body += ',';
  Body += '"';
  Body += jsonEscape(K);
  Body += "\":";
}
Json &Json::num(const std::string &K, double V) {
  key(K);
  Body += jsonNumber(V);
  return *this;
}
Json &Json::str(const std::string &K, const std::string &V) {
  key(K);
  Body += '"';
  Body += jsonEscape(V);
  Body += '"';
  return *this;
}
Json &Json::boolean(const std::string &K, bool V) {
  key(K);
  Body += V ? "true" : "false";
  return *this;
}
Json &Json::raw(const std::string &K, const std::string &RawJson) {
  key(K);
  Body += RawJson;
  return *this;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Table = [] {
    std::vector<std::pair<std::string, std::string>> T = {
        {"frontend.parse_us", "us"},
        {"deps.analyze_ms", "ms"},
        {"codegen.compile_hybrid_ms", "ms"},
        {"codegen.plan_build_ms", "ms"},
        {"codegen.emit_host_ms", "ms"},
        {"codegen.host_bytes", "count"},
        {"jit.build_ms", "ms"},
        {"jit.so_bytes", "count"},
    };
    const char *Stencils[] = {"jacobi2d", "heat3d"};
    const char *Flavors[] = {"hex", "hybrid", "classical", "overlapped"};
    for (const char *S : Stencils)
      for (const char *F : Flavors)
        for (const char *M : {"serial", "parallel"})
          T.push_back({std::string("kernel.mpts_s.") + S + "." + F + "." + M,
                       "Mpts/s"});
    for (const char *S : Stencils)
      for (const char *F : Flavors)
        T.push_back({std::string("kernel.pct_of_naive.") + S + "." + F, "%"});
    for (const char *S : Stencils)
      for (const char *F : Flavors)
        T.push_back(
            {std::string("kernel.parallel_speedup.") + S + "." + F, "ratio"});
    for (const char *S : Stencils)
      T.push_back({std::string("kernel.redundant_instances.") + S, "count"});
    for (const char *S : Stencils)
      T.push_back({std::string("ref.naive_mpts_s.") + S, "Mpts/s"});
    for (const auto &[Name, Unit] :
         std::vector<std::pair<const char *, const char *>>{
             {"hit_rate", "ratio"},
             {"dedup_ratio", "ratio"},
             {"compiles", "count"},
             {"joins", "count"},
             {"disk_hits", "count"},
             {"queue_ms_p50", "ms"},
             {"compile_ms_p50", "ms"},
             {"disk_hit_ms_p50", "ms"},
             {"evictions", "count"}})
      T.push_back({std::string("service.") + Name, Unit});
    const char *KeyFamilies[] = {"hex", "hybrid", "classical", "diamond"};
    const char *Families[] = {"hex", "hybrid", "classical", "diamond",
                              "overlapped"};
    for (const char *F : KeyFamilies)
      T.push_back({std::string("core.key_eval_mkeys_s.") + F, "Mkeys/s"});
    T.push_back({"exec.ref_minst_s", "Minst/s"});
    for (const char *F : Families)
      for (const char *B : {"serial", "pool", "devicesim"})
        T.push_back({std::string("exec.replay_minst_s.") + F + "." + B,
                     "Minst/s"});
    for (const char *What : {"pool_speedup", "bands", "peak_buffer",
                             "halo_bytes", "exchange_gap_pct"})
      for (const char *F : Families)
        T.push_back({std::string("exec.") + What + "." + F,
                     std::strcmp(What, "pool_speedup") == 0       ? "ratio"
                     : std::strcmp(What, "exchange_gap_pct") == 0 ? "%"
                                                                  : "count"});
    T.push_back({"trace.coverage_pct", "%"});
    T.push_back({"trace.overhead_pct", "%"});
    T.push_back({"trace.spans", "count"});
    for (const char *L : {"frontend", "deps", "codegen", "jit", "kernel",
                          "ref", "service", "core", "exec", "bench"})
      T.push_back({std::string("self_share.") + L, "ratio"});
    return T;
  }();
  return Table;
}

//===----------------------------------------------------------------------===//
// Entry point.
//===----------------------------------------------------------------------===//

namespace {

struct Args {
  RunConfig Cfg;
  std::string Out, TraceOut;
  double UntracedThroughput = 0;
};

constexpr int SetupProcesses = 5;

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <stencil_run|"
               "serve_cold|serve_warm|replay_check> --seed <n> --seconds "
               "<s> --trace <0|1> [--workdir <dir>] [--out <file>] "
               "[--trace-out <file>] [--untraced-throughput <x>] "
               "[--liveness] [--setup-only]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int argc, char **argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--liveness" || Flag == "--setup-only") {
      (Flag == "--liveness" ? A.Cfg.Liveness : A.Cfg.SetupOnly) = true;
      continue;
    }
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    std::string V = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Cfg.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Cfg.Seed = std::strtoull(V.c_str(), &End, 0);
    } else if (Flag == "--seconds") {
      A.Cfg.Seconds = std::strtod(V.c_str(), &End);
      if (!(A.Cfg.Seconds > 0))
        usage("--seconds must be positive");
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      A.Cfg.Trace = V == "1";
    } else if (Flag == "--workdir") {
      A.Cfg.WorkDir = V;
    } else if (Flag == "--out") {
      A.Out = V;
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else if (Flag == "--untraced-throughput") {
      A.UntracedThroughput = std::strtod(V.c_str(), &End);
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      usage(("malformed value for " + Flag).c_str());
  }
  static const std::set<std::string> Known = {"stencil_run", "serve_cold",
                                              "serve_warm", "replay_check"};
  if (!HaveWorkload || !Known.count(A.Cfg.Workload))
    usage("--workload must name one of the four workloads");
  if (A.Cfg.WorkDir.empty())
    A.Cfg.WorkDir = ".";
  return A;
}

/// Median of the set-up times SetupProcesses child runs of \p Self report;
/// 0 when a child fails.
double setupAcrossProcesses(const char *Self, const RunConfig &Cfg) {
  std::string Cmd = "'" + std::string(Self) + "' --workload " +
                    Cfg.Workload + " --seed " + std::to_string(Cfg.Seed) +
                    " --seconds " + std::to_string(Cfg.Seconds) +
                    " --trace 0 --workdir '" + Cfg.WorkDir + "' --setup-only" +
                    (Cfg.Liveness ? " --liveness" : "");
  std::vector<double> PerProcess;
  for (int I = 0; I < SetupProcesses; ++I) {
    FILE *P = popen(Cmd.c_str(), "r");
    if (!P)
      return 0;
    double S = 0;
    bool Read = std::fscanf(P, "%lf", &S) == 1;
    if (pclose(P) != 0 || !Read || !(S > 0))
      return 0;
    PerProcess.push_back(S);
  }
  return median(PerProcess);
}

std::string metricsJson(const std::map<std::string, Metric> &M) {
  Json J;
  for (const auto &[Name, V] : M)
    J.raw(Name, Json().num("value", V.Value).str("unit", V.Unit).text());
  return J.text();
}

} // namespace

int main(int argc, char **argv) {
  Args A = parseArgs(argc, argv);
  RunConfig &Cfg = A.Cfg;
  Cfg.Host = probeHost();
  trace::setEnabled(Cfg.Trace);

  auto WallStart = std::chrono::steady_clock::now();
  Result R = Cfg.Workload == "stencil_run"   ? runStencilRun(Cfg)
             : Cfg.Workload == "serve_cold"  ? runServe(Cfg, false)
             : Cfg.Workload == "serve_warm"  ? runServe(Cfg, true)
                                             : runReplayCheck(Cfg);
  double WallS = secondsSince(WallStart);
  trace::setEnabled(false);
  if (Cfg.SetupOnly) {
    std::printf("%.17g\n", R.Failed ? 0.0 : R.SetupS);
    return R.Failed ? 1 : 0;
  }
  if (R.Failed == 0) {
    R.SetupS = setupAcrossProcesses(argv[0], Cfg);
    if (!(R.SetupS > 0))
      R.fail("a --setup-only child process failed");
  }

  // End-to-end metrics (meaningful from the untraced run).
  Tail T = tailOf(R.LatenciesMs);
  std::vector<double> KindMedians;
  for (const auto &[Kind, Ms] : R.LatenciesByKind)
    KindMedians.push_back(median(Ms));
  std::map<std::string, Metric> E2E = {
      {"setup_s", {R.SetupS, "s"}},
      {"throughput", {R.Throughput, "1/s"}},
      {"latency_p50_ms", {geomean(KindMedians), "ms"}},
      {"latency_tail_ms", {T.Value, "ms"}},
      {"peak_rss_mb", {peakRssMb(), "MB"}},
  };
  R.Workload["error_rate"] = {
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0,
      "ratio"};

  // Per-layer metrics: the workload's own plus the span-derived ones.
  std::vector<trace::Span> Spans = trace::snapshot();
  double Coverage = trace::topLevelCoverage(Spans, R.Timed);
  std::map<std::string, int64_t> Self = trace::selfTimeByLayer(Spans);
  int64_t SelfTotal = 0;
  for (const auto &[Layer, Ns] : Self)
    SelfTotal += Ns;
  R.Layer["trace.coverage_pct"] = 100.0 * Coverage;
  R.Layer["trace.spans"] = static_cast<double>(Spans.size());
  R.Layer["trace.overhead_pct"] =
      A.UntracedThroughput > 0 && R.Throughput > 0
          ? 100.0 * (A.UntracedThroughput / R.Throughput - 1.0)
          : 0;
  for (const auto &[Layer, Ns] : Self)
    R.Layer["self_share." + Layer] =
        SelfTotal ? static_cast<double>(Ns) / SelfTotal : 0;
  std::map<std::string, Metric> PerLayer;
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    auto It = R.Layer.find(Name);
    PerLayer[Name] = {It == R.Layer.end() ? 0.0 : It->second, Unit};
  }
  if (Cfg.Trace && !Cfg.Liveness && Coverage < 0.95)
    R.fail("top-level spans cover " + std::to_string(100.0 * Coverage) +
           "% of the timed wall time (< 95%)");
  if (T.Beyond < MinBeyond && !Cfg.Liveness)
    R.fail("only " + std::to_string(T.Count) +
           " latency samples: no percentile has ten samples beyond it");

  // Text report.
  const char *Timing = Cfg.Liveness ? "liveness" : "full";
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d timing=%s\n",
              Cfg.Workload.c_str(),
              static_cast<unsigned long long>(Cfg.Seed), Cfg.Seconds,
              Cfg.Trace ? 1 : 0, Timing);
  std::printf("host: %s, nproc %u, LLC %lld bytes, bench compiler %s (%s), "
              "JIT compiler %s (%s), JIT flags %s\n",
              Cfg.Host.CpuModel.c_str(), Cfg.Host.Nproc,
              static_cast<long long>(Cfg.Host.LlcBytes),
              Cfg.Host.BenchCompiler.c_str(),
              Cfg.Host.BenchCompilerVersion.c_str(),
              Cfg.Host.JitCompiler.c_str(),
              Cfg.Host.JitCompilerVersion.c_str(), Cfg.Host.JitFlags.c_str());
  std::printf("throughput counts %s; latency times %s\n",
              R.ThroughputItem.c_str(), R.LatencyOp.c_str());
  std::printf("latency: %zu operation kind(s); tail p%g over %zu samples, "
              "%zu beyond\n",
              R.LatenciesByKind.size(), T.Percentile, T.Count, T.Beyond);
  for (const auto &[Name, M] : E2E)
    std::printf("  e2e      %-34s %14.6g %s\n", Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const auto &[Name, M] : R.Workload)
    std::printf("  workload %-34s %14.6g %s\n", Name.c_str(), M.Value,
                M.Unit.c_str());
  if (Cfg.Trace)
    for (const auto &[Name, M] : PerLayer)
      if (M.Value != 0)
        std::printf("  layer    %-34s %14.6g %s\n", Name.c_str(), M.Value,
                    M.Unit.c_str());
  for (const std::string &F : R.Failures)
    std::printf("FAILED: %s\n", F.c_str());
  std::printf("attempted %llu, failed %llu, wall %.3f s\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), WallS);

  // Files.
  if (!A.TraceOut.empty() && Cfg.Trace) {
    std::ofstream(A.TraceOut) << trace::chromeJson(Spans);
  }
  if (!A.Out.empty()) {
    std::string Rows = "[";
    for (size_t I = 0; I < R.Rows.size(); ++I)
      Rows += (I ? "," : "") + R.Rows[I];
    Rows += "]";
    std::string Failures = "[";
    for (size_t I = 0; I < R.Failures.size(); ++I)
      Failures += std::string(I ? "," : "") + "\"" +
                  jsonEscape(R.Failures[I]) + "\"";
    Failures += "]";
    Json Full;
    Full.str("workload", Cfg.Workload)
        .num("seed", static_cast<double>(Cfg.Seed))
        .num("seconds", Cfg.Seconds)
        .boolean("trace", Cfg.Trace)
        .str("timing", Timing)
        .raw("host", Cfg.Host.json())
        .str("throughput_item", R.ThroughputItem)
        .str("latency_op", R.LatencyOp)
        .raw("latency_tail",
             Json()
                 .num("kinds", static_cast<double>(R.LatenciesByKind.size()))
                 .num("percentile", T.Percentile)
                 .num("samples", static_cast<double>(T.Count))
                 .num("beyond", static_cast<double>(T.Beyond))
                 .text())
        .raw("end_to_end", metricsJson(E2E))
        .raw("workload_metrics", metricsJson(R.Workload))
        .raw("per_layer", metricsJson(PerLayer))
        .raw("rows", Rows)
        .num("attempted", static_cast<double>(R.Attempted))
        .num("failed", static_cast<double>(R.Failed))
        .raw("failures", Failures)
        .num("wall_s", WallS);
    std::ofstream(A.Out) << Full.text() << "\n";
  }

  Json Last;
  Last.boolean("correct", R.Failed == 0)
      .num("attempted", static_cast<double>(R.Attempted))
      .num("failed", static_cast<double>(R.Failed))
      .raw("metrics", metricsJson(Cfg.Trace ? PerLayer : E2E));
  std::printf("%s\n", Last.text().c_str());
  std::fflush(stdout);
  return R.Failed == 0 ? 0 : 1;
}
