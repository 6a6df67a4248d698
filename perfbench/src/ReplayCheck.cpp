//===- ReplayCheck.cpp - Workload replay_check ----------------------------===//
//
// Schedule checking with no JIT: for jacobi2d and heat3d, every family
// (hex, hybrid, classical, diamond through exec::checkScheduleEquivalence
// with appending-form keys; overlapped through
// exec::checkOverlappedEquivalence and exec::runOverlapped) is
// replayed on the Serial, ThreadPool(4) and DeviceSim(2, threaded)
// backends and compared with exec::runReference. Core key evaluation and
// exec replay dominate. One known-illegal key (space-major order) must
// come back "differs" every round; a family that cannot tile a stencil is
// recorded as skipped, not failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Keys.h"
#include "Stats.h"

#include "core/IterationDomain.h"
#include "core/OverlappedSchedule.h"
#include "deps/DependenceAnalysis.h"
#include "exec/ExecutionBackend.h"
#include "exec/Executor.h"
#include "exec/GridStorage.h"
#include "exec/OverlappedReplay.h"
#include "exec/PartitionedGridStorage.h"
#include "frontend/Parser.h"
#include "gpu/PerfModel.h"
#include "ir/StencilGallery.h"

#include <cmath>
#include <optional>

using namespace perfbench;
using namespace hextile;
using Clock = std::chrono::steady_clock;

namespace {

struct ReplayCase {
  const char *Name;
  int64_t N, Steps, LiveN, LiveSteps;
  Tiling T;
};

const ReplayCase Cases[] = {
    {"jacobi2d", 48, 8, 16, 4, {2, 4, 8, 8}},
    {"heat3d", 14, 6, 8, 3, {2, 4, 4, 6}},
};

struct BackendCase {
  const char *Name;
  exec::BackendKind Kind;
};
const BackendCase Backends[] = {{"serial", exec::BackendKind::Serial},
                                {"pool", exec::BackendKind::ThreadPool},
                                {"devicesim", exec::BackendKind::DeviceSim}};

constexpr int PoolThreads = 4;
constexpr unsigned SimDevices = 2;
/// 31 checks a round; 7..32 rounds (217..992 samples) keep the tail at
/// p95 on every run.
constexpr int MinRounds = 7, MaxRounds = 32;
constexpr int SetupRepeats = 25;

struct Row {
  std::string Stencil, Family, Backend, Skipped;
  int64_t Instances = 0;
  std::vector<double> CheckS, ReplayS;
  exec::ReplayStats Stats;
  double GapPct = 0;
};

struct Prepared {
  ir::StencilProgram P;
  core::IterationDomain Domain;
  std::vector<deps::ConeBounds> Cones;
  std::vector<FamilyKey> Keys; ///< Indexed like AllFamilies.
  int64_t Instances = 0;
};

/// Predicted-vs-measured link cost of one DeviceSim replay, in percent.
double exchangeGapPct(const ir::StencilProgram &P, const exec::FieldStorage &S,
                      const exec::ReplayStats &Stats, int64_t BandSteps) {
  auto *Parts = dynamic_cast<const exec::PartitionedGridStorage *>(&S);
  if (!Parts || Stats.HaloExchanges == 0 || Stats.HaloSimulatedSeconds <= 0)
    return 0;
  std::vector<int64_t> Cuts;
  for (unsigned D = 1; D < Parts->numDevices(); ++D)
    Cuts.push_back(Parts->owned(D).Lo);
  gpu::DeviceTopology Topo = exec::defaultSimTopology(SimDevices);
  gpu::HaloExchangeCost Predicted =
      BandSteps > 0
          ? gpu::predictBandedHaloExchangeCost(P, Topo, Cuts, BandSteps)
          : gpu::predictHaloExchangeCost(
                P, Topo, Cuts, static_cast<int64_t>(Stats.HaloExchanges));
  return 100.0 * std::fabs(Predicted.Seconds - Stats.HaloSimulatedSeconds) /
         Stats.HaloSimulatedSeconds;
}

} // namespace

Result perfbench::runReplayCheck(const RunConfig &Cfg) {
  Result R;
  R.ThroughputItem = "statement instances checked per second (geometric "
                     "mean over stencil x family x backend rows)";
  R.LatencyOp = "one schedule check (replay plus comparison)";

  // Set-up: the replay backends (pool and simulated-device threads start
  // here); median of SetupRepeats, the last set is used.
  std::unique_ptr<exec::ExecutionBackend> Bk[3];
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    for (auto &B : Bk)
      B.reset();
    auto T0 = Clock::now();
    for (int I = 0; I < 3; ++I)
      Bk[I] = exec::makeBackend(Backends[I].Kind, PoolThreads, SimDevices);
    SetupS.push_back(secondsSince(T0));
  }
  R.SetupS = median(SetupS);
  if (Cfg.SetupOnly)
    return R;

  int64_t TimedFrom = trace::nowNs();
  std::vector<Prepared> Preps;
  for (const ReplayCase &RC : Cases) {
    ir::StencilProgram Gallery = ir::makeByName(RC.Name);
    Gallery.setSpaceSizes(std::vector<int64_t>(
        Gallery.spaceRank(), Cfg.Liveness ? RC.LiveN : RC.N));
    Gallery.setTimeSteps(Cfg.Liveness ? RC.LiveSteps : RC.Steps);
    frontend::ParseResult Parsed;
    {
      trace::Scope S("frontend.parse");
      Parsed = frontend::parseStencilProgram(Gallery.str(), RC.Name);
    }
    ++R.Attempted;
    if (!Parsed.ok()) {
      R.fail(std::string(RC.Name) + ": parse failed: " + Parsed.Error);
      continue;
    }
    Prepared Pr{Parsed.Program,
                core::IterationDomain::forProgram(Parsed.Program), {}, {}, 0};
    {
      trace::Scope S("deps.analyze");
      Pr.Cones = deps::computeAllConeBounds(deps::analyzeDependences(Pr.P));
    }
    for (Family F : AllFamilies)
      Pr.Keys.push_back(makeFamilyKey(Pr.P, F, RC.T, Pr.Cones));
    Pr.Instances = Pr.Domain.numPoints();
    Preps.push_back(std::move(Pr));
  }

  std::vector<Row> Rows;
  std::map<std::string, std::vector<double>> KeyRates, RefRates;
  auto Start = Clock::now();
  for (int Round = 0; Round < MaxRounds; ++Round) {
    if (Round >= MinRounds && secondsSince(Start) >= Cfg.Seconds)
      break;
    // The reference run, key evaluation and seeded replay feed only the
    // per-layer metrics, which come from the traced run. An untraced run
    // verifies them once, in round 0, and spends its other rounds on the
    // checks the end-to-end metrics time, so its per-kind medians cover
    // twice as many rounds of the run.
    bool LayerRound = Cfg.Trace || Round == 0;
    size_t RowIdx = 0;
    for (size_t CI = 0; CI < Preps.size(); ++CI) {
      const Prepared &Pr = Preps[CI];
      const ir::StencilProgram &P = Pr.P;
      const Tiling &T = Cases[CI].T;
      exec::Initializer Init = seededInit(Cfg.Seed + Round, P.spaceSizes());
      int64_t Last = P.timeSteps() - 1;
      std::unique_ptr<exec::GridStorage> Ref;
      if (LayerRound) {
        trace::Scope S("exec.make_storage");
        Ref = std::make_unique<exec::GridStorage>(P, Init);
      }
      if (LayerRound) {
        trace::Scope S("exec.reference");
        auto T0 = Clock::now();
        exec::runReference(P, *Ref);
        RefRates[P.name()].push_back(Pr.Instances / secondsSince(T0) / 1e6);
      }
      for (size_t FI = 0; FI < std::size(AllFamilies); ++FI) {
        Family F = AllFamilies[FI];
        const FamilyKey &K = Pr.Keys[FI];
        if (K.Key && LayerRound) {
          trace::Scope S("core.key_eval");
          std::vector<int64_t> Out;
          size_t N = 0;
          auto T0 = Clock::now();
          Pr.Domain.forEachPoint([&](std::span<const int64_t> Pt) {
            Out.clear();
            K.Key(Pt, Out);
            N += Out.size();
          });
          double Secs = secondsSince(T0);
          if (N == 0)
            R.fail("key evaluation produced no components");
          KeyRates[std::string(familyName(F)) + "|" + P.name()].push_back(
              Pr.Instances / Secs / 1e6);
        }
        for (int BI = 0; BI < 3; ++BI, ++RowIdx) {
          if (Round == 0) {
            Row New;
            New.Stencil = P.name();
            New.Family = familyName(F);
            New.Backend = Backends[BI].Name;
            New.Instances = Pr.Instances;
            New.Skipped = K.Skipped;
            Rows.push_back(New);
          }
          Row &Rw = Rows[RowIdx];
          if (!K.Skipped.empty())
            continue;
          exec::ScheduleRunOptions Opts;
          Opts.Backend = Backends[BI].Kind;
          Opts.NumThreads = PoolThreads;
          Opts.NumDevices = SimDevices;
          Opts.BackendOverride = Bk[BI].get();
          Opts.ShuffleSeed =
              mix64(Cfg.Seed ^ (static_cast<uint64_t>(Round) << 32) ^ RowIdx);
          Opts.ParallelFrom = K.ParallelFrom;
          exec::ReplayStats Stats;
          Opts.Stats = &Stats;
          std::string Where = Rw.Stencil + "/" + Rw.Family + "/" + Rw.Backend;
          // Overlapped tiling has no key: its check and replay go through
          // the overlapped entry points.
          bool Over = F == Family::Overlapped;
          std::optional<core::OverlappedSchedule> Sched;
          if (Over)
            Sched.emplace(P, T.H + 1, legalHexParams(T, Pr.Cones).W0);

          // The end-to-end verdict, then a direct replay on seeded inputs
          // for the replay-layer numbers.
          std::string Verdict;
          {
            trace::Scope S("exec.check");
            auto T0 = Clock::now();
            Verdict = Over ? exec::checkOverlappedEquivalence(P, *Sched, Opts)
                           : exec::checkScheduleEquivalence(P, K.Key, Opts);
            Rw.CheckS.push_back(secondsSince(T0));
          }
          R.latency(Where, 1e3 * Rw.CheckS.back());
          ++R.Attempted;
          if (!Verdict.empty())
            R.fail(Where + ": " + Verdict);
          if (!LayerRound)
            continue;
          Stats = exec::ReplayStats();
          std::unique_ptr<exec::FieldStorage> Got;
          {
            trace::Scope S("exec.make_storage");
            Got = Over ? exec::makeOverlappedStorage(P, *Sched, Opts, Init)
                       : exec::makeStorage(P, Opts, Init);
          }
          {
            trace::Scope S(Over ? "exec.run_overlapped" : "exec.run_schedule");
            auto T0 = Clock::now();
            if (Over)
              exec::runOverlapped(P, *Sched, *Got, Opts);
            else
              exec::runSchedule(P, *Got, Pr.Domain, K.Key, Opts);
            Rw.ReplayS.push_back(secondsSince(T0));
          }
          ++R.Attempted;
          trace::Scope S("bench.verify");
          if (std::string Diff = exec::compareStoragesAtStep(*Ref, *Got, Last);
              !Diff.empty())
            R.fail(Where + " (seeded replay): " + Diff);
          Rw.Stats = Stats;
          Rw.GapPct =
              exchangeGapPct(P, *Got, Stats, Over ? Sched->bandSteps() : 0);
        }
      }
      if (CI == 0) {
        // The known-illegal key must be caught every round.
        exec::ScheduleRunOptions Opts;
        std::string Verdict;
        {
          trace::Scope S("exec.check");
          auto T0 = Clock::now();
          Verdict = exec::checkScheduleEquivalence(
              P, spaceMajorKey(P.spaceRank()), Opts);
          R.latency(P.name() + "/space-major", 1e3 * secondsSince(T0));
        }
        ++R.Attempted;
        if (Verdict.empty())
          R.fail(P.name() + ": the space-major key passed the equivalence "
                            "check (verdict must be \"differs\")");
      }
    }
  }
  R.Timed.push_back({TimedFrom, trace::nowNs()});

  std::vector<double> CheckRates;
  std::map<std::string, std::vector<double>> ReplayByFB, SerialRate, PoolRate;
  std::map<std::string, double> Bands, Peak, Halo, Gap;
  for (const Row &Rw : Rows) {
    double Check =
        Rw.CheckS.empty() ? 0 : Rw.Instances / median(Rw.CheckS) / 1e6;
    double Replay =
        Rw.ReplayS.empty() ? 0 : Rw.Instances / median(Rw.ReplayS) / 1e6;
    if (Check > 0)
      CheckRates.push_back(Check);
    if (Replay > 0) {
      ReplayByFB[Rw.Family + "." + Rw.Backend].push_back(Replay);
      if (Rw.Backend == std::string("serial"))
        SerialRate[Rw.Family].push_back(Replay);
      if (Rw.Backend == std::string("pool"))
        PoolRate[Rw.Family].push_back(Replay);
    }
    if (Rw.Backend == std::string("serial")) {
      Bands[Rw.Family] += static_cast<double>(Rw.Stats.Bands);
      Peak[Rw.Family] += static_cast<double>(Rw.Stats.PeakBandInstances);
    }
    if (Rw.Backend == std::string("devicesim")) {
      Halo[Rw.Family] += static_cast<double>(Rw.Stats.HaloBytesExchanged);
      Gap[Rw.Family] = std::max(Gap[Rw.Family], Rw.GapPct);
    }
    Json J;
    J.str("stencil", Rw.Stencil)
        .str("family", Rw.Family)
        .str("backend", Rw.Backend)
        .str("timing", Cfg.Liveness ? "liveness" : "full")
        .num("instances", static_cast<double>(Rw.Instances))
        .num("check_minst_s", Check)
        .num("replay_minst_s", Replay)
        .num("checks", static_cast<double>(Rw.CheckS.size()))
        .num("bands", static_cast<double>(Rw.Stats.Bands))
        .num("peak_buffer", static_cast<double>(Rw.Stats.PeakBandInstances))
        .num("redundant_instances",
             static_cast<double>(Rw.Stats.RedundantInstances))
        .num("halo_bytes", static_cast<double>(Rw.Stats.HaloBytesExchanged))
        .num("exchange_gap_pct", Rw.GapPct);
    if (!Rw.Skipped.empty())
      J.str("skipped", Rw.Skipped);
    R.Rows.push_back(J.text());
  }
  R.Throughput = 1e6 * geomean(CheckRates);
  R.Workload["check_minst_s"] = {geomean(CheckRates), "Minst/s"};
  std::vector<double> Ref;
  for (auto &[Name, V] : RefRates)
    Ref.push_back(median(V));
  R.Layer["exec.ref_minst_s"] = geomean(Ref);
  std::map<std::string, std::vector<double>> KeyByFamily;
  for (auto &[Name, V] : KeyRates)
    KeyByFamily[Name.substr(0, Name.find('|'))].push_back(median(V));
  for (auto &[Name, V] : KeyByFamily)
    R.Layer["core.key_eval_mkeys_s." + Name] = geomean(V);
  for (auto &[Name, V] : ReplayByFB)
    R.Layer["exec.replay_minst_s." + Name] = geomean(V);
  for (auto &[Name, V] : PoolRate) {
    double Serial = geomean(SerialRate[Name]);
    R.Layer["exec.pool_speedup." + Name] = Serial > 0 ? geomean(V) / Serial : 0;
  }
  for (auto &[Name, V] : Bands)
    R.Layer["exec.bands." + Name] = V;
  for (auto &[Name, V] : Peak)
    R.Layer["exec.peak_buffer." + Name] = V;
  for (auto &[Name, V] : Halo)
    R.Layer["exec.halo_bytes." + Name] = V;
  for (auto &[Name, V] : Gap)
    R.Layer["exec.exchange_gap_pct." + Name] = V;
  return R;
}
