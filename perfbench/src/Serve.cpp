//===- Serve.cpp - Workloads serve_cold and serve_warm --------------------===//
//
// A closed loop of four client threads sends a seeded Zipf stream over the
// gallery key population (12 programs x ladder rungs a-d x serial|parallel
// shim = 96 keys) to service::CompileService, each client sending its next
// request when the previous one returns.
//
//   serve_cold  a fresh service over an empty artifact store: JIT compiles
//               dominate miss latency (the store's write path).
//   serve_warm  a fresh service over a store filled during untimed
//               preparation: every first touch is a DiskHit and nothing
//               compiles (the store's read path).
//
// A seeded sample of the served artifacts is then run at the population's
// sizes and compared bit for bit with exec::runReference.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Stats.h"

#include "exec/Executor.h"
#include "exec/GridStorage.h"
#include "frontend/Parser.h"
#include "ir/StencilGallery.h"
#include "service/CompileService.h"
#include "service/JitUnit.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

using namespace perfbench;
using namespace hextile;
using Clock = std::chrono::steady_clock;

namespace {

/// The gallery at the sizes the emitted-kernel oracle sweeps (small enough
/// that a served unit runs in well under a millisecond).
struct GalleryCase {
  const char *Name;
  int64_t N, Steps, H, W0;
  std::vector<int64_t> Inner;
};

const GalleryCase Gallery[] = {
    {"jacobi1d", 48, 12, 3, 4, {}},    {"skewed1d", 48, 10, 2, 3, {}},
    {"jacobi2d", 20, 8, 1, 2, {6}},    {"laplacian2d", 20, 8, 2, 2, {6}},
    {"heat2d", 18, 6, 1, 3, {5}},      {"gradient2d", 18, 6, 2, 4, {6}},
    {"fdtd2d", 16, 5, 2, 3, {5}},      {"wave2d", 16, 6, 2, 3, {5}},
    {"varheat2d", 16, 6, 1, 3, {5}},   {"laplacian3d", 12, 4, 1, 2, {4, 4}},
    {"heat3d", 12, 4, 2, 2, {4, 4}},   {"gradient3d", 12, 4, 1, 3, {3, 4}},
};

constexpr unsigned Clients = 4;
constexpr int ServiceThreads = 4;
/// 4000 requests touch all 96 keys (a fixed compile volume on a cold
/// store) and put 40 samples beyond the nearest-rank p99; on a warm store
/// they keep the ~96 disk hits near 2% of requests, so p99 reads the disk
/// hits' bulk rather than their jittery top.
constexpr size_t RequestsPerRound = 4000;
constexpr double ZipfExponent = 1.0;
constexpr size_t SampleChecks = 8;
/// Warm rounds (a fresh service each): a fixed number per --seconds, so
/// every run stores the same number of samples and the process's peak
/// memory does not follow the host's speed. About --seconds on a 4-core
/// Xeon.
constexpr double WarmRoundsPerSecond = 30;
constexpr int SetupRepeats = 25;

/// The 96 requests, each built from the program's source text; a program
/// whose text does not parse is a failure.
std::vector<service::CompileRequest> population(Result &Res) {
  std::vector<service::CompileRequest> Requests;
  for (const GalleryCase &G : Gallery) {
    ir::StencilProgram P = ir::makeByName(G.Name);
    P.setSpaceSizes(std::vector<int64_t>(P.spaceRank(), G.N));
    P.setTimeSteps(G.Steps);
    frontend::ParseResult Parsed =
        frontend::parseStencilProgram(P.str(), G.Name);
    ++Res.Attempted;
    if (!Parsed.ok()) {
      Res.fail(std::string(G.Name) + ": parse failed: " + Parsed.Error);
      continue;
    }
    for (int Shim : {0, 4})
      for (char Rung : {'a', 'b', 'c', 'd'}) {
        service::CompileRequest R;
        R.Program = Parsed.Program;
        R.Tiling.H = G.H;
        R.Tiling.W0 = G.W0;
        R.Tiling.InnerWidths = G.Inner;
        R.Config = codegen::OptimizationConfig::level(Rung);
        R.Config.ShimThreads = Shim;
        Requests.push_back(std::move(R));
      }
  }
  return Requests;
}

/// One served artifact per key, kept alive for the sample check.
using ServedMap =
    std::map<uint32_t, std::shared_ptr<const service::CompiledArtifact>>;

struct Sample {
  double Ms = 0;
  service::RequestOutcome How = service::RequestOutcome::Failed;
  double QueueMs = 0, CompileMs = 0;
};

/// Sends \p Stream through \p Svc from Clients closed-loop threads.
/// Keeps one served artifact per key in \p Served.
std::vector<Sample>
replayStream(service::CompileService &Svc,
             const std::vector<service::CompileRequest> &Pop,
             const std::vector<uint32_t> &Stream, int64_t RequestBase,
             ServedMap &Served,
             Result &R) {
  std::vector<Sample> Samples(Stream.size());
  std::atomic<size_t> Next{0};
  std::mutex M; // Guards Served and R's failure list.
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Clients; ++T)
    Threads.emplace_back([&] {
      // The client loop's own bookkeeping is benchmark time; its requests
      // are child spans.
      trace::Scope Client("bench.client");
      for (size_t I; (I = Next.fetch_add(1)) < Stream.size();) {
        service::CompileResult Res;
        auto T0 = Clock::now();
        {
          trace::Scope S("service.request",
                         RequestBase + static_cast<int64_t>(I));
          Res = Svc.compile(Pop[Stream[I]]);
        }
        Samples[I].Ms = 1e3 * secondsSince(T0);
        Samples[I].How = Res.Stats.How;
        Samples[I].QueueMs = Res.Stats.QueueMs;
        Samples[I].CompileMs = Res.Stats.CompileMs;
        std::lock_guard<std::mutex> Lock(M);
        if (!Res.ok())
          R.fail("request " + std::to_string(I) + " (" +
                 Pop[Stream[I]].Program.name() + "): " + Res.Error);
        else
          Served.emplace(Stream[I], Res.Artifact);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  R.Attempted += Stream.size();
  return Samples;
}

/// Runs a seeded sample of the served artifacts and compares each with
/// exec::runReference.
void checkServed(
    const std::vector<service::CompileRequest> &Pop,
    const ServedMap &Served,
    uint64_t Seed, Result &R) {
  std::vector<uint32_t> Keys;
  for (const auto &[K, A] : Served)
    Keys.push_back(K);
  uint64_t State = mix64(Seed ^ 0xc4ec4ec4ull);
  for (size_t I = 0; I < Keys.size(); ++I)
    std::swap(Keys[I], Keys[I + static_cast<size_t>(uniform01(State) *
                                                    (Keys.size() - I))]);
  Keys.resize(std::min(Keys.size(), SampleChecks));
  for (uint32_t K : Keys) {
    const ir::StencilProgram &P = Pop[K].Program;
    const service::CompiledArtifact &A = *Served.at(K);
    ++R.Attempted;
    if (!A.entry()) {
      R.fail(P.name() + ": served artifact has no entry point");
      continue;
    }
    exec::GridStorage Want(P, seededInit(Seed, P.spaceSizes()));
    {
      trace::Scope S("exec.reference");
      exec::runReference(P, Want);
    }
    FlatFields Got(P);
    Got.fill(Seed);
    std::vector<float *> Ptrs = Got.pointers();
    {
      trace::Scope S("kernel.run");
      A.entry()(Ptrs.data());
    }
    trace::Scope S("bench.verify");
    std::string Diff =
        exec::compareStoragesAtStep(Want, Got, P.timeSteps() - 1);
    if (!Diff.empty())
      R.fail(P.name() + " key " + A.key().hex() + ": " + Diff);
  }
}

double medianOf(const std::vector<Sample> &S,
                bool (*Keep)(const Sample &), double Sample::*Field) {
  std::vector<double> V;
  for (const Sample &X : S)
    if (Keep(X))
      V.push_back(X.*Field);
  return median(V);
}

} // namespace

Result perfbench::runServe(const RunConfig &Cfg, bool Warm) {
  namespace fs = std::filesystem;
  Result R;
  R.ThroughputItem = "requests served per second by the closed loop";
  R.LatencyOp = "one CompileService::compile request";
  if (!service::JitUnit::available()) {
    R.Attempted = 1;
    R.fail("no system C++ compiler: host artifacts cannot be built");
    return R;
  }
  std::vector<service::CompileRequest> Pop = population(R);
  if (Pop.empty())
    return R;
  fs::path Store =
      fs::path(Cfg.WorkDir) / (Warm ? "warm_store" : "cold_store");
  service::CompileServiceOptions Opts;
  Opts.StoreDir = Store.string();
  Opts.NumThreads = ServiceThreads;

  if (Warm) {
    // Untimed preparation: make sure the store holds every key. The store
    // persists in the work directory, so only the first run in a checkout
    // compiles.
    fs::create_directories(Store);
    service::CompileService Filler(Opts);
    for (auto &F : Filler.compileBatch(Pop))
      if (service::CompileResult Res = F.get(); !Res.ok()) {
        ++R.Attempted;
        R.fail("filling the warm store failed: " + Res.Error);
        return R;
      }
  }

  auto freshStore = [&] {
    if (!Warm) {
      std::error_code EC;
      fs::remove_all(Store, EC);
      fs::create_directories(Store);
    }
  };
  // Set-up: service construction (store scan, compile pool, dispatcher);
  // median of SetupRepeats, the last one serves the first round.
  std::unique_ptr<service::CompileService> Svc;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Svc.reset();
    freshStore();
    auto T0 = Clock::now();
    Svc = std::make_unique<service::CompileService>(Opts);
    SetupS.push_back(secondsSince(T0));
  }
  R.SetupS = median(SetupS);
  if (Cfg.SetupOnly)
    return R;

  std::vector<Sample> All;
  ServedMap Served;
  service::ServiceCounters Counts;
  double BusyS = 0;
  int Rounds =
      Warm ? std::max(1, static_cast<int>(WarmRoundsPerSecond * Cfg.Seconds))
           : 1;
  // The timed windows are the request streams and the sample check; the
  // service restarts and stream generation between them are not timed.
  for (int Round = 0; Round < Rounds; ++Round) {
    if (Round > 0) {
      trace::Scope S("bench.restart");
      Served.clear();
      Svc.reset();
      Svc = std::make_unique<service::CompileService>(Opts);
    }
    std::vector<uint32_t> Stream =
        zipfStream(Cfg.Seed + static_cast<uint64_t>(Round),
                   static_cast<uint32_t>(Pop.size()),
                   Cfg.Liveness ? 100 : RequestsPerRound, ZipfExponent);
    auto T0 = Clock::now();
    int64_t From = trace::nowNs();
    std::vector<Sample> S =
        replayStream(*Svc, Pop, Stream,
                     static_cast<int64_t>(Round * RequestsPerRound), Served, R);
    R.Timed.push_back({From, trace::nowNs()});
    BusyS += secondsSince(T0);
    All.insert(All.end(), S.begin(), S.end());
    service::ServiceCounters C = Svc->counters();
    Counts.Requests += C.Requests;
    Counts.MemoryHits += C.MemoryHits;
    Counts.DiskHits += C.DiskHits;
    Counts.InflightJoins += C.InflightJoins;
    Counts.Compiles += C.Compiles;
    Counts.Evictions += C.Evictions;
  }
  int64_t CheckFrom = trace::nowNs();
  checkServed(Pop, Served, Cfg.Seed, R);
  R.Timed.push_back({CheckFrom, trace::nowNs()});
  Served.clear();
  Svc.reset();

  using RO = service::RequestOutcome;
  for (const Sample &S : All)
    R.latency("request", S.Ms);
  R.Throughput = BusyS > 0 ? All.size() / BusyS : 0;
  Tail T = tailOf(R.LatenciesMs);
  R.Workload["request_p50_ms"] = {median(R.LatenciesMs), "ms"};
  R.Workload["request_p99_ms"] = {T.Value, "ms"};
  R.Workload["request_p99_beyond"] = {static_cast<double>(T.Beyond), "count"};
  if (!Warm)
    R.Workload["miss_p50_ms"] = {
        medianOf(
            All,
            [](const Sample &S) {
              return S.How == RO::Compiled || S.How == RO::JoinedInflight;
            },
            &Sample::Ms),
        "ms"};
  R.Layer["service.hit_rate"] = Counts.hitRate();
  R.Layer["service.dedup_ratio"] = Counts.dedupRatio();
  R.Layer["service.compiles"] = static_cast<double>(Counts.Compiles);
  R.Layer["service.joins"] = static_cast<double>(Counts.InflightJoins);
  R.Layer["service.disk_hits"] = static_cast<double>(Counts.DiskHits);
  R.Layer["service.evictions"] = static_cast<double>(Counts.Evictions);
  auto IsCompiled = [](const Sample &S) { return S.How == RO::Compiled; };
  R.Layer["service.queue_ms_p50"] = medianOf(All, IsCompiled, &Sample::QueueMs);
  R.Layer["service.compile_ms_p50"] =
      medianOf(All, IsCompiled, &Sample::CompileMs);
  R.Layer["service.disk_hit_ms_p50"] = medianOf(
      All, [](const Sample &S) { return S.How == RO::DiskHit; }, &Sample::Ms);

  std::map<RO, std::vector<double>> ByOutcome;
  for (const Sample &S : All)
    ByOutcome[S.How].push_back(S.Ms);
  for (const auto &[How, Ms] : ByOutcome) {
    Json Row;
    Row.str("outcome", service::requestOutcomeName(How))
        .str("timing", Cfg.Liveness ? "liveness" : "full")
        .num("requests", static_cast<double>(Ms.size()))
        .num("p50_ms", median(Ms))
        .num("max_ms", *std::max_element(Ms.begin(), Ms.end()));
    R.Rows.push_back(Row.text());
  }
  return R;
}
