//===- OverlappedReplay.cpp - Overlapped (trapezoidal) replay -------------===//

#include "exec/OverlappedReplay.h"

#include "exec/DeviceSimBackend.h"
#include "exec/PartitionedGridStorage.h"
#include "support/MathExt.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

using namespace hextile;
using namespace hextile::exec;

namespace {

/// One tile's private window: core + band-entry footprint along dim 0,
/// full grid extents on the inner dimensions, every rotating slot of every
/// field -- laid out exactly like GridStorage so the band's ticks run
/// through executeInstanceOn with slot arithmetic unchanged. Off-grid
/// window cells exist but are never loaded, computed, or read (reads from
/// update-domain cells stay inside the grid).
class TileWindow {
public:
  void init(const ir::StencilProgram &P, int64_t Width) {
    if (!Data.empty())
      return;
    Sizes = P.spaceSizes();
    WinW = Width;
    InnerPoints = 1;
    for (unsigned D = 1; D < Sizes.size(); ++D)
      InnerPoints *= Sizes[D];
    WinPoints = WinW * InnerPoints;
    unsigned NumFields = P.fields().size();
    Depth.resize(NumFields);
    FieldOffset.resize(NumFields);
    int64_t Copies = 0;
    for (unsigned F = 0; F < NumFields; ++F) {
      Depth[F] = P.bufferDepth(F);
      FieldOffset[F] = Copies;
      Copies += Depth[F];
    }
    Data.assign(static_cast<size_t>(Copies * WinPoints), 0.0f);
  }

  void setBase(int64_t Lo) { WinLo = Lo; }

  float read(unsigned Field, int64_t T, std::span<const int64_t> C) const {
    return Data[index(Field, T, C)];
  }
  void write(unsigned Field, int64_t T, std::span<const int64_t> C, float V) {
    Data[index(Field, T, C)] = V;
  }

private:
  size_t index(unsigned Field, int64_t T, std::span<const int64_t> C) const {
    int64_t Slot = euclidMod(T, Depth[Field]);
    int64_t W0 = C[0] - WinLo;
    assert(W0 >= 0 && W0 < WinW && "read/write outside the tile window");
    int64_t Linear = W0;
    for (unsigned D = 1; D < Sizes.size(); ++D)
      Linear = Linear * Sizes[D] + C[D];
    return static_cast<size_t>((FieldOffset[Field] + Slot) * WinPoints +
                               Linear);
  }

  std::vector<int64_t> Sizes;
  std::vector<unsigned> Depth;
  std::vector<int64_t> FieldOffset;
  int64_t WinLo = 0;
  int64_t WinW = 0;
  int64_t InnerPoints = 0;
  int64_t WinPoints = 0;
  std::vector<float> Data;
};

uint64_t splitmix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// The flat-storage replay: private windows, two phases per band.
void runOverlappedTiled(const ir::StencilProgram &P,
                        const core::OverlappedSchedule &Sched,
                        FieldStorage &Storage,
                        const ScheduleRunOptions &Opts) {
  const std::vector<int64_t> &Sizes = P.spaceSizes();
  unsigned Rank = P.spaceRank();
  unsigned NumFields = P.fields().size();
  int64_t NumTiles = Sched.numTiles();
  int64_t WinW = Sched.tileWidth() + Sched.footLo() + Sched.footHi();
  int64_t Lo0 = P.loHalo(0);
  int64_t Hi0 = Sizes[0] - P.hiHalo(0);
  int64_t InnerAll = 1;
  std::vector<int64_t> InnerUpLo(Rank, 0), InnerUpExt(Rank, 1);
  int64_t InnerUp = 1;
  for (unsigned D = 1; D < Rank; ++D) {
    InnerAll *= Sizes[D];
    InnerUpLo[D] = P.loHalo(D);
    InnerUpExt[D] =
        std::max<int64_t>(0, Sizes[D] - P.hiHalo(D) - InnerUpLo[D]);
    InnerUp *= InnerUpExt[D];
  }

  std::vector<TileWindow> Windows(static_cast<size_t>(NumTiles));
  std::vector<size_t> TileInstances(static_cast<size_t>(NumTiles), 0);
  std::vector<size_t> TileRedundant(static_cast<size_t>(NumTiles), 0);

  // Tile execution order: shuffled when seeded, to prove order freedom the
  // same way wavefront replays shuffle instances.
  std::vector<int64_t> Order(static_cast<size_t>(NumTiles));
  std::iota(Order.begin(), Order.end(), 0);
  if (Opts.ShuffleSeed != 0) {
    uint64_t State = Opts.ShuffleSeed;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[splitmix64(State) % I]);
  }

  int64_t NumBands = Sched.numBands(P.timeSteps());
  int64_t NumStmts = P.numStmts();

  // Phase 1 of one band for one tile: stage the footprint (slot-image
  // copies: reading time T = s hits slot s for s < depth) and run the
  // band's ticks entirely inside the window.
  auto LoadCompute = [&](int64_t Tile, int64_t Band) {
    TileWindow &Win = Windows[static_cast<size_t>(Tile)];
    Win.init(P, WinW);
    int64_t WinLo = Sched.tileLo(Tile) - Sched.footLo();
    Win.setBase(WinLo);
    std::vector<int64_t> C(Rank, 0);
    std::span<const int64_t> CS(C.data(), Rank);
    int64_t LoadLo = std::max<int64_t>(0, WinLo);
    int64_t LoadHi = std::min<int64_t>(Sizes[0], WinLo + WinW);
    for (unsigned F = 0; F < NumFields; ++F)
      for (unsigned S = 0; S < P.bufferDepth(F); ++S)
        for (int64_t C0 = LoadLo; C0 < LoadHi; ++C0) {
          C[0] = C0;
          for (int64_t J = 0; J < InnerAll; ++J) {
            int64_t Rem = J;
            for (unsigned D = Rank; D-- > 1;) {
              C[D] = Rem % Sizes[D];
              Rem /= Sizes[D];
            }
            Win.write(F, S, CS, Storage.read(F, S, CS));
          }
        }

    int64_t Ticks = Sched.bandStepsOf(Band, P.timeSteps()) * NumStmts;
    int64_t TickBase = Band * Sched.ticksPerBand();
    int64_t TileLo = Sched.tileLo(Tile), TileHi = Sched.tileHi(Tile);
    std::vector<int64_t> Point(Rank + 1, 0);
    size_t Done = 0, Redundant = 0;
    for (int64_t V = 0; V < Ticks; ++V) {
      Point[0] = TickBase + V;
      int64_t CLo = std::max(Lo0, TileLo - Sched.marginLo(V));
      int64_t CHi = std::min(Hi0, TileHi + Sched.marginHi(V));
      for (int64_t S0 = CLo; S0 < CHi; ++S0) {
        Point[1] = S0;
        for (int64_t J = 0; J < InnerUp; ++J) {
          int64_t Rem = J;
          for (unsigned D = Rank; D-- > 1;) {
            Point[D + 1] = InnerUpLo[D] + Rem % InnerUpExt[D];
            Rem /= InnerUpExt[D];
          }
          executeInstanceOn(P, Win, Point);
        }
        Done += static_cast<size_t>(InnerUp);
        if (S0 < TileLo || S0 >= TileHi)
          Redundant += static_cast<size_t>(InnerUp);
      }
    }
    TileInstances[static_cast<size_t>(Tile)] += Done;
    TileRedundant[static_cast<size_t>(Tile)] += Redundant;
  };

  // Phase 2: write the core column back, every slot of every field (cells
  // a band never wrote copy their own staged value -- identity). Cores
  // are disjoint, so concurrent tiles never collide.
  auto WriteBack = [&](int64_t Tile) {
    TileWindow &Win = Windows[static_cast<size_t>(Tile)];
    std::vector<int64_t> C(Rank, 0);
    std::span<const int64_t> CS(C.data(), Rank);
    for (unsigned F = 0; F < NumFields; ++F)
      for (unsigned S = 0; S < P.bufferDepth(F); ++S)
        for (int64_t C0 = Sched.tileLo(Tile); C0 < Sched.tileHi(Tile); ++C0) {
          C[0] = C0;
          for (int64_t J = 0; J < InnerAll; ++J) {
            int64_t Rem = J;
            for (unsigned D = Rank; D-- > 1;) {
              C[D] = Rem % Sizes[D];
              Rem /= Sizes[D];
            }
            Storage.write(F, S, CS, Win.read(F, S, CS));
          }
        }
  };

  // Resolve the pool: reuse an overriding ThreadPoolBackend's, else build
  // one for BackendKind::ThreadPool, else run serially.
  ThreadPool *Pool = nullptr;
  std::unique_ptr<ThreadPool> OwnedPool;
  if (auto *TPB = dynamic_cast<ThreadPoolBackend *>(Opts.BackendOverride)) {
    Pool = &TPB->pool();
  } else if (!Opts.BackendOverride &&
             Opts.Backend == BackendKind::ThreadPool) {
    OwnedPool = std::make_unique<ThreadPool>(resolveNumThreads(Opts.NumThreads));
    Pool = OwnedPool.get();
  }
  uint64_t PoolTasksAtBegin = Pool ? Pool->tasksDispatched() : 0;

  size_t BandInstances = static_cast<size_t>(
      std::max<int64_t>(0, Hi0 - Lo0) * InnerUp * Sched.ticksPerBand());
  bool UsePool = Pool && BandInstances > Opts.MinTaskInstances;

  for (int64_t Band = 0; Band < NumBands; ++Band) {
    if (UsePool) {
      Pool->parallelFor(static_cast<size_t>(NumTiles), [&](size_t I) {
        LoadCompute(Order[I], Band);
      });
      Pool->parallelFor(static_cast<size_t>(NumTiles),
                        [&](size_t I) { WriteBack(Order[I]); });
    } else {
      for (int64_t I = 0; I < NumTiles; ++I)
        LoadCompute(Order[static_cast<size_t>(I)], Band);
      for (int64_t I = 0; I < NumTiles; ++I)
        WriteBack(Order[static_cast<size_t>(I)]);
    }
  }

  if (ReplayStats *Stats = Opts.Stats) {
    *Stats = ReplayStats{};
    for (int64_t T = 0; T < NumTiles; ++T) {
      Stats->Instances += TileInstances[static_cast<size_t>(T)];
      Stats->RedundantInstances += TileRedundant[static_cast<size_t>(T)];
    }
    Stats->Bands = static_cast<size_t>(NumBands);
    Stats->Wavefronts = static_cast<size_t>(NumBands) * 2; // two phases
    Stats->PeakBandInstances = NumBands ? Stats->Instances / NumBands : 0;
    Stats->MaxWavefrontInstances = Stats->PeakBandInstances;
    Stats->PoolTasks = Pool ? Pool->tasksDispatched() - PoolTasksAtBegin : 0;
  }
}

/// The partitioned-storage replay: device-level trapezoids, one exchange
/// per band (DeviceSimBackend::runOverlappedBand).
void runOverlappedBanded(const ir::StencilProgram &P,
                         const core::OverlappedSchedule &Sched,
                         PartitionedGridStorage &Parts,
                         const ScheduleRunOptions &Opts) {
  DeviceSimBackend *Backend = nullptr;
  std::unique_ptr<DeviceSimBackend> OwnedBackend;
  if (Opts.BackendOverride) {
    Backend = dynamic_cast<DeviceSimBackend *>(Opts.BackendOverride);
    if (!Backend)
      throw std::invalid_argument(
          "overlapped replay over partitioned storage needs a "
          "DeviceSimBackend override, got '" +
          std::string(Opts.BackendOverride->name()) + "'");
  } else {
    OwnedBackend =
        Opts.Topology ? std::make_unique<DeviceSimBackend>(*Opts.Topology)
                      : std::make_unique<DeviceSimBackend>(Opts.NumDevices);
    OwnedBackend->setMinTaskInstances(Opts.MinTaskInstances);
    Backend = OwnedBackend.get();
  }

  Parts.setBandedReplayMode(true);
  int64_t NumBands = Sched.numBands(P.timeSteps());
  if (Opts.Stats)
    *Opts.Stats = ReplayStats{};
  Backend->beginReplay();
  for (int64_t Band = 0; Band < NumBands; ++Band)
    Backend->runOverlappedBand(P, Parts, Sched, Band);
  Backend->finishReplay(Opts.Stats);

  if (ReplayStats *Stats = Opts.Stats) {
    Stats->Bands = static_cast<size_t>(NumBands);
    Stats->Wavefronts = static_cast<size_t>(NumBands);
    for (const DeviceReplayStats &D : Stats->PerDevice)
      Stats->Instances += D.Instances;
  }
}

} // namespace

std::unique_ptr<FieldStorage>
exec::makeOverlappedStorage(const ir::StencilProgram &P,
                            const core::OverlappedSchedule &Sched,
                            const ScheduleRunOptions &Opts,
                            const Initializer &Init) {
  ScheduleRunOptions Banded = Opts;
  Banded.ExchangeCadenceSteps = Sched.bandSteps();
  return makeStorage(P, Banded, Init);
}

void exec::runOverlapped(const ir::StencilProgram &P,
                         const core::OverlappedSchedule &Sched,
                         FieldStorage &Storage,
                         const ScheduleRunOptions &Opts) {
  if (&Sched.program() != &P && Sched.program().name() != P.name())
    throw std::invalid_argument("overlapped schedule was built for '" +
                                Sched.program().name() + "', replaying '" +
                                P.name() + "'");
  if (auto *Parts = dynamic_cast<PartitionedGridStorage *>(&Storage)) {
    runOverlappedBanded(P, Sched, *Parts, Opts);
    return;
  }
  runOverlappedTiled(P, Sched, Storage, Opts);
}

std::string
exec::checkOverlappedEquivalence(const ir::StencilProgram &P,
                                 const core::OverlappedSchedule &Sched,
                                 const ScheduleRunOptions &Opts) {
  GridStorage Ref(P);
  runReference(P, Ref);

  std::unique_ptr<FieldStorage> Tiled = makeOverlappedStorage(P, Sched, Opts);
  runOverlapped(P, Sched, *Tiled, Opts);

  int64_t LastStep = P.timeSteps() - 1;
  return compareStoragesAtStep(Ref, *Tiled, LastStep);
}
