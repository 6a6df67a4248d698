//===- StencilRun.cpp - Workload stencil_run ------------------------------===//
//
// One caller takes jacobi2d (2D, one field, memory-bound) and heat3d (3D,
// 27-point, wider halo) from source text to verified results: each gallery
// program is rendered with StencilProgram::str(), parsed, compiled with
// compileHybrid, emitted with emitHost, JIT-built and run, for the hex,
// hybrid, classical and overlapped flavors at ladder rung a, each serial
// and parallel (4 shim workers in the library's default geometry, asked
// for through OptimizationConfig::ShimThreads). Field storage exceeds the
// last-level cache, so the kernel run dominates; every run is compared
// bit for bit with the benchmark's naive -O3 loop.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Stats.h"

#include "codegen/EmissionCore.h"
#include "codegen/HostEmitter.h"
#include "codegen/HybridCompiler.h"
#include "core/OverlappedSchedule.h"
#include "deps/DependenceAnalysis.h"
#include "frontend/Parser.h"
#include "ir/StencilGallery.h"
#include "service/JitUnit.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

using namespace perfbench;
using namespace hextile;
using Clock = std::chrono::steady_clock;

namespace {

struct StencilCase {
  const char *Name;
  int64_t N, Steps;          ///< Full size.
  int64_t LiveN, LiveSteps;  ///< Liveness size.
  int64_t H, W0;
  std::vector<int64_t> Inner;
};

// Sizes: two rotating float copies of 4096^2 and 256^3 are 128 MiB each,
// beyond this class of host's last-level cache (checked at run time).
// jacobi2d runs h+1 = 3 steps, one full hexagon phase.
const StencilCase Cases[] = {
    {"jacobi2d", 4096, 3, 64, 4, 2, 3, {32}},
    {"heat3d", 256, 2, 16, 3, 2, 3, {8, 32}},
};

constexpr codegen::EmitSchedule Flavors[] = {
    codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
    codegen::EmitSchedule::Classical, codegen::EmitSchedule::Overlapped};

constexpr int ParallelWorkers = 4;
constexpr int CompileThreads = 4;
// Kernel-call rounds: a fixed count, because one sweep of the 16 rows over
// grids beyond the LLC already takes longer than --seconds on a 4-core
// Xeon. The 48 calls put the tail on the p75 rung, among the slowest (and
// steadiest, parallel) rows, on every run.
constexpr int Rounds = 3;
constexpr int SetupRepeats = 5;

using EntryFn = void (*)(float **);

struct Unit {
  size_t Case = 0;
  codegen::EmitSchedule Flavor = codegen::EmitSchedule::Hex;
  bool Parallel = false;
  std::unique_ptr<service::JitUnit> Jit;
  EntryFn Entry = nullptr;
  std::string Error;
  double ParseUs = 0, DepsMs = 0, CompileHybridMs = 0, PlanMs = 0,
         EmitMs = 0, BuildMs = 0, CompileMs = 0;
  int64_t HostBytes = 0, SoBytes = 0, Redundant = 0;
  std::vector<double> RunS;

  std::string label(const ir::StencilProgram &P) const {
    return P.name() + "." + codegen::emitScheduleName(Flavor) + "." +
           (Parallel ? "parallel" : "serial");
  }
};

double msSince(Clock::time_point T0) { return 1e3 * secondsSince(T0); }

/// Source text -> loaded unit, each stage timed from outside.
void compileUnit(Unit &U, const std::string &Source, const std::string &Name,
                 const StencilCase &SC) {
  trace::Scope Whole("bench.unit_compile");
  auto T0 = Clock::now();
  frontend::ParseResult Parsed;
  {
    trace::Scope S("frontend.parse");
    Parsed = frontend::parseStencilProgram(Source, Name);
  }
  U.ParseUs = 1e3 * msSince(T0);
  if (!Parsed.ok()) {
    U.Error = "parse failed: " + Parsed.Error;
    return;
  }
  auto T1 = Clock::now();
  {
    trace::Scope S("deps.analyze");
    deps::DependenceInfo Deps = deps::analyzeDependences(Parsed.Program);
    (void)Deps;
  }
  U.DepsMs = msSince(T1);

  codegen::TileSizeRequest Sizes;
  Sizes.H = SC.H;
  Sizes.W0 = SC.W0;
  Sizes.InnerWidths = SC.Inner;
  codegen::OptimizationConfig Config = codegen::OptimizationConfig::level('a');
  Config.ShimThreads = U.Parallel ? ParallelWorkers : 0;
  auto T2 = Clock::now();
  std::optional<codegen::CompiledHybrid> C;
  {
    trace::Scope S("codegen.compile_hybrid");
    C.emplace(codegen::compileHybrid(Parsed.Program, Sizes, Config));
  }
  U.CompileHybridMs = msSince(T2);

  auto T3 = Clock::now();
  std::optional<codegen::EmissionPlan> Plan;
  {
    trace::Scope S("codegen.plan_build");
    Plan.emplace(codegen::EmissionPlan::build(*C, U.Flavor));
  }
  U.PlanMs = msSince(T3);
  if (U.Flavor == codegen::EmitSchedule::Overlapped) {
    // Redundant instances: per-tile interior-band redundancy times tiles,
    // bands and inner points.
    core::OverlappedSchedule Ov(C->program(), Plan->Over.BandSteps,
                                Plan->Over.TileW);
    int64_t InnerPoints = 1;
    for (unsigned D = 1; D < Plan->Rank; ++D)
      InnerPoints *= Plan->Hi[D] - Plan->Lo[D];
    U.Redundant = Ov.redundantInstancesPerTile() * Plan->Over.NumTiles *
                  Plan->Over.NumBands * InnerPoints;
  }
  auto T4 = Clock::now();
  std::string HostSource;
  {
    trace::Scope S("codegen.emit_host");
    HostSource = codegen::emitHost(*C, U.Flavor);
  }
  U.EmitMs = msSince(T4);
  U.HostBytes = static_cast<int64_t>(HostSource.size());

  U.Jit = std::make_unique<service::JitUnit>();
  auto T5 = Clock::now();
  std::string Err;
  {
    trace::Scope S("jit.build");
    Err = U.Jit->build(HostSource);
  }
  U.BuildMs = msSince(T5);
  U.CompileMs = U.ParseUs / 1e3 + U.CompileHybridMs + U.EmitMs + U.BuildMs;
  if (!Err.empty()) {
    U.Error = "JIT build failed: " + Err;
    return;
  }
  std::error_code EC;
  U.SoBytes = static_cast<int64_t>(
      std::filesystem::file_size(U.Jit->sharedObjectPath(), EC));
  U.Entry = reinterpret_cast<EntryFn>(
      U.Jit->symbol(codegen::hostEntryName(Parsed.Program)));
  if (!U.Entry)
    U.Error = "entry " + codegen::hostEntryName(Parsed.Program) + " missing";
}

int64_t instancesOf(const ir::StencilProgram &P) {
  int64_t N = P.timeSteps() * static_cast<int64_t>(P.numStmts());
  for (unsigned D = 0; D < P.spaceRank(); ++D)
    N *= P.spaceSizes()[D] - P.loHalo(D) - P.hiHalo(D);
  return N;
}

} // namespace

Result perfbench::runStencilRun(const RunConfig &Cfg) {
  Result R;
  R.ThroughputItem = "grid-point updates of an emitted kernel (geometric "
                     "mean over the 16 stencil x flavor x serial|parallel "
                     "rows)";
  R.LatencyOp = "one emitted-kernel call on the full grid";

  // The programs as their source text says: the naive reference runs the
  // parse of the same text the units are compiled from.
  std::vector<ir::StencilProgram> Progs;
  std::vector<std::string> Sources;
  for (const StencilCase &SC : Cases) {
    ir::StencilProgram P = ir::makeByName(SC.Name);
    int64_t N = Cfg.Liveness ? SC.LiveN : SC.N;
    P.setSpaceSizes(std::vector<int64_t>(P.spaceRank(), N));
    P.setTimeSteps(Cfg.Liveness ? SC.LiveSteps : SC.Steps);
    Sources.push_back(P.str());
    frontend::ParseResult Parsed =
        frontend::parseStencilProgram(Sources.back(), SC.Name);
    if (!Parsed.ok() || !hasNaiveLoop(Parsed.Program)) {
      R.Attempted = 1;
      R.fail(std::string(SC.Name) + ": the source text does not parse to a "
             "stencil the naive loop covers: " + Parsed.Error);
      return R;
    }
    Progs.push_back(std::move(Parsed.Program));
  }

  if (!service::JitUnit::available()) {
    R.Attempted = 1;
    R.fail("no system C++ compiler: the emitted kernels cannot be built");
    return R;
  }

  // Set-up: the rotating field buffers the emitted entry points run on,
  // allocated and first-touched (median of SetupRepeats).
  std::vector<std::unique_ptr<FlatFields>> Work;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Work.clear();
    auto T0 = Clock::now();
    for (const ir::StencilProgram &P : Progs)
      Work.push_back(std::make_unique<FlatFields>(P));
    SetupS.push_back(secondsSince(T0));
  }
  R.SetupS = median(SetupS);
  if (Cfg.SetupOnly)
    return R;

  int64_t StorageBytes = Work[0]->bytes();
  for (auto &W : Work)
    StorageBytes = std::min(StorageBytes, W->bytes());
  if (!Cfg.Liveness &&
      (Cfg.Host.LlcBytes <= 0 || StorageBytes <= Cfg.Host.LlcBytes)) {
    R.Attempted = 1;
    R.fail("field storage (" + std::to_string(StorageBytes) +
           " bytes) does not exceed the last-level cache (" +
           (Cfg.Host.LlcBytes > 0 ? std::to_string(Cfg.Host.LlcBytes) +
                                        " bytes)"
                                  : "size unknown)"));
    return R;
  }

  // Compile all 16 units on CompileThreads threads, longest (parallel)
  // units first.
  std::vector<Unit> Units;
  for (bool Parallel : {true, false})
    for (size_t CI = 0; CI < Progs.size(); ++CI)
      for (codegen::EmitSchedule F : Flavors) {
        Unit U;
        U.Case = CI;
        U.Flavor = F;
        U.Parallel = Parallel;
        Units.push_back(std::move(U));
      }
  int64_t TimedFrom = trace::nowNs();
  {
    std::atomic<size_t> Next{0};
    std::vector<std::thread> Pool;
    for (int T = 0; T < CompileThreads; ++T)
      Pool.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < Units.size();)
          compileUnit(Units[I], Sources[Units[I].Case],
                      Progs[Units[I].Case].name(), Cases[Units[I].Case]);
      });
    for (std::thread &T : Pool)
      T.join();
  }
  for (Unit &U : Units) {
    ++R.Attempted;
    if (!U.Error.empty())
      R.fail(U.label(Progs[U.Case]) + ": " + U.Error);
  }

  // Kernel runs, one stencil at a time so only one stencil's reference and
  // pristine copies are resident.
  std::vector<std::vector<double>> NaiveS(Progs.size());
  for (size_t CI = 0; CI < Progs.size(); ++CI) {
    const ir::StencilProgram &P = Progs[CI];
    FlatFields Pristine(P), Want(P);
    {
      trace::Scope S("bench.fill");
      Pristine.fill(Cfg.Seed);
    }
    std::vector<float *> Ptrs = Work[CI]->pointers();
    for (int Round = 0; Round < Rounds; ++Round) {
      {
        trace::Scope S("bench.reset");
        Want.copyFrom(Pristine);
      }
      {
        trace::Scope S("ref.naive");
        auto T0 = Clock::now();
        runNaive(P, Want);
        NaiveS[CI].push_back(secondsSince(T0));
      }
      for (Unit &U : Units) {
        if (U.Case != CI || !U.Entry)
          continue;
        {
          trace::Scope S("bench.reset");
          Work[CI]->copyFrom(Pristine);
        }
        {
          trace::Scope S("kernel.run");
          auto T0 = Clock::now();
          U.Entry(Ptrs.data());
          U.RunS.push_back(secondsSince(T0));
        }
        R.latency(U.label(P), 1e3 * U.RunS.back());
        ++R.Attempted;
        trace::Scope S("bench.verify");
        if (std::string Diff = compareFinal(P, Want, *Work[CI]); !Diff.empty())
          R.fail(U.label(P) + ": " + Diff);
      }
    }
  }
  R.Timed.push_back({TimedFrom, trace::nowNs()});
  // Release the units (and their shim worker pools) before reporting.
  for (Unit &U : Units)
    U.Jit.reset();

  // Rows and metrics.
  std::vector<double> RowRates, SerialRates, ParallelRates, CompileMs,
      ParseUs, DepsMs, HybridMs, PlanMs, EmitMs, BuildMs;
  int64_t HostBytes = 0, SoBytes = 0;
  for (const Unit &U : Units) {
    const ir::StencilProgram &P = Progs[U.Case];
    if (U.Error.empty()) {
      CompileMs.push_back(U.CompileMs);
      ParseUs.push_back(U.ParseUs);
      DepsMs.push_back(U.DepsMs);
      HybridMs.push_back(U.CompileHybridMs);
      PlanMs.push_back(U.PlanMs);
      EmitMs.push_back(U.EmitMs);
      BuildMs.push_back(U.BuildMs);
      HostBytes += U.HostBytes;
      SoBytes += U.SoBytes;
    }
    double Mpts = U.RunS.empty()
                      ? 0
                      : instancesOf(P) / median(U.RunS) / 1e6;
    std::string Flavor = codegen::emitScheduleName(U.Flavor);
    std::string Mode = U.Parallel ? "parallel" : "serial";
    R.Layer["kernel.mpts_s." + P.name() + "." + Flavor + "." + Mode] = Mpts;
    if (Mpts > 0) {
      RowRates.push_back(Mpts);
      (U.Parallel ? ParallelRates : SerialRates).push_back(Mpts);
    }
    if (U.Flavor == codegen::EmitSchedule::Overlapped && !U.Parallel)
      R.Layer["kernel.redundant_instances." + P.name()] =
          static_cast<double>(U.Redundant);
    Json Row;
    Row.str("stencil", P.name())
        .str("flavor", Flavor)
        .str("mode", Mode)
        .str("timing", Cfg.Liveness ? "liveness" : "full")
        .str("tolerance", "bit-exact")
        .num("instances", static_cast<double>(instancesOf(P)))
        .num("mpts_s", Mpts)
        .num("runs", static_cast<double>(U.RunS.size()))
        .num("compile_ms", U.CompileMs)
        .num("parse_us", U.ParseUs)
        .num("deps_ms", U.DepsMs)
        .num("compile_hybrid_ms", U.CompileHybridMs)
        .num("plan_build_ms", U.PlanMs)
        .num("emit_host_ms", U.EmitMs)
        .num("jit_build_ms", U.BuildMs)
        .num("host_bytes", static_cast<double>(U.HostBytes))
        .num("so_bytes", static_cast<double>(U.SoBytes));
    R.Rows.push_back(Row.text());
  }
  for (size_t CI = 0; CI < Progs.size(); ++CI) {
    const ir::StencilProgram &P = Progs[CI];
    double Naive = instancesOf(P) / median(NaiveS[CI]) / 1e6;
    R.Layer["ref.naive_mpts_s." + P.name()] = Naive;
    for (codegen::EmitSchedule F : Flavors) {
      std::string Flavor = codegen::emitScheduleName(F);
      double Serial =
          R.Layer["kernel.mpts_s." + P.name() + "." + Flavor + ".serial"];
      double Par =
          R.Layer["kernel.mpts_s." + P.name() + "." + Flavor + ".parallel"];
      R.Layer["kernel.pct_of_naive." + P.name() + "." + Flavor] =
          Naive > 0 ? 100.0 * Serial / Naive : 0;
      R.Layer["kernel.parallel_speedup." + P.name() + "." + Flavor] =
          Serial > 0 ? Par / Serial : 0;
    }
    Json Row;
    Row.str("stencil", P.name())
        .str("flavor", "naive")
        .str("mode", "serial")
        .str("timing", Cfg.Liveness ? "liveness" : "full")
        .num("instances", static_cast<double>(instancesOf(P)))
        .num("mpts_s", Naive)
        .num("runs", static_cast<double>(NaiveS[CI].size()))
        .num("storage_bytes", static_cast<double>(Work[CI]->bytes()));
    R.Rows.push_back(Row.text());
  }
  R.Throughput = 1e6 * geomean(RowRates);
  R.Workload["compile_ms"] = {median(CompileMs), "ms"};
  R.Workload["serial_mpts_s"] = {geomean(SerialRates), "Mpts/s"};
  R.Workload["parallel_mpts_s"] = {geomean(ParallelRates), "Mpts/s"};
  R.Workload["storage_bytes"] = {static_cast<double>(StorageBytes), "bytes"};
  R.Layer["frontend.parse_us"] = median(ParseUs);
  R.Layer["deps.analyze_ms"] = median(DepsMs);
  R.Layer["codegen.compile_hybrid_ms"] = median(HybridMs);
  R.Layer["codegen.plan_build_ms"] = median(PlanMs);
  R.Layer["codegen.emit_host_ms"] = median(EmitMs);
  R.Layer["codegen.host_bytes"] = static_cast<double>(HostBytes);
  R.Layer["jit.build_ms"] = median(BuildMs);
  R.Layer["jit.so_bytes"] = static_cast<double>(SoBytes);
  return R;
}
