//===- Inputs.cpp - Seeded inputs and flat field buffers ------------------===//

#include "Inputs.h"

#include "support/MathExt.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

using namespace perfbench;
using namespace hextile;

uint64_t perfbench::mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

double perfbench::uniform01(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ull;
  return static_cast<double>(mix64(State) >> 11) * 0x1.0p-53;
}

float perfbench::inputValue(uint64_t Seed, unsigned Field, int64_t Linear) {
  uint64_t H = mix64(mix64(Seed ^ (0xa0761d6478bd642full * (Field + 1))) ^
                     static_cast<uint64_t>(Linear));
  return static_cast<float>(H >> 40) * 0x1.0p-23f - 1.0f;
}

exec::Initializer perfbench::seededInit(uint64_t Seed,
                                        std::vector<int64_t> Sizes) {
  return [Seed, Sizes](unsigned Field, std::span<const int64_t> Coords) {
    int64_t L = 0;
    for (size_t D = 0; D < Sizes.size(); ++D)
      L = L * Sizes[D] + Coords[D];
    return inputValue(Seed, Field, L);
  };
}

std::vector<uint32_t> perfbench::zipfStream(uint64_t Seed, uint32_t NumKeys,
                                            size_t Count, double Exponent) {
  uint64_t State = mix64(Seed ^ 0x5a1f5a1f5a1f5a1full);
  std::vector<uint32_t> KeyOfRank(NumKeys);
  for (uint32_t I = 0; I < NumKeys; ++I)
    KeyOfRank[I] = I;
  for (uint32_t I = NumKeys; I > 1; --I) // Fisher-Yates.
    std::swap(KeyOfRank[I - 1],
              KeyOfRank[static_cast<uint32_t>(uniform01(State) * I)]);
  std::vector<double> Cdf(NumKeys);
  double Sum = 0;
  for (uint32_t R = 0; R < NumKeys; ++R)
    Cdf[R] = Sum += std::pow(static_cast<double>(R + 1), -Exponent);
  std::vector<uint32_t> Stream(Count);
  for (uint32_t &K : Stream) {
    double U = uniform01(State) * Sum;
    size_t R = std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    K = KeyOfRank[std::min<size_t>(R, NumKeys - 1)];
  }
  return Stream;
}

FlatFields::FlatFields(const ir::StencilProgram &P)
    : Extents(P.spaceSizes()) {
  PointsPerCopy = 1;
  for (int64_t S : Extents)
    PointsPerCopy *= S;
  for (unsigned F = 0; F < P.fields().size(); ++F) {
    Depths.push_back(P.bufferDepth(F));
    Buffers.emplace_back(static_cast<size_t>(Depths.back()) * PointsPerCopy);
  }
}

void FlatFields::fill(uint64_t Seed) {
  for (unsigned F = 0; F < Buffers.size(); ++F) {
    float *Copy0 = Buffers[F].data();
    for (int64_t L = 0; L < PointsPerCopy; ++L)
      Copy0[L] = inputValue(Seed, F, L);
    for (unsigned D = 1; D < Depths[F]; ++D)
      std::memcpy(Copy0 + D * PointsPerCopy, Copy0,
                  PointsPerCopy * sizeof(float));
  }
}

void FlatFields::copyFrom(const FlatFields &O) {
  for (unsigned F = 0; F < Buffers.size(); ++F)
    std::memcpy(Buffers[F].data(), O.Buffers[F].data(),
                Buffers[F].size() * sizeof(float));
}

std::vector<float *> FlatFields::pointers() {
  std::vector<float *> Ptrs;
  for (std::vector<float> &B : Buffers)
    Ptrs.push_back(B.data());
  return Ptrs;
}

float *FlatFields::slot(unsigned Field, int64_t T) {
  return Buffers[Field].data() + euclidMod(T, Depths[Field]) * PointsPerCopy;
}

const float *FlatFields::slot(unsigned Field, int64_t T) const {
  return Buffers[Field].data() + euclidMod(T, Depths[Field]) * PointsPerCopy;
}

int64_t FlatFields::bytes() const {
  int64_t B = 0;
  for (const std::vector<float> &V : Buffers)
    B += static_cast<int64_t>(V.size() * sizeof(float));
  return B;
}

int64_t FlatFields::linear(std::span<const int64_t> Coords) const {
  int64_t L = 0;
  for (size_t D = 0; D < Extents.size(); ++D)
    L = L * Extents[D] + Coords[D];
  return L;
}

float FlatFields::read(unsigned Field, int64_t T,
                       std::span<const int64_t> Coords) const {
  return slot(Field, T)[linear(Coords)];
}

void FlatFields::write(unsigned Field, int64_t T,
                       std::span<const int64_t> Coords, float V) {
  slot(Field, T)[linear(Coords)] = V;
}

std::string perfbench::compareFinal(const ir::StencilProgram &P,
                                    const FlatFields &Want,
                                    const FlatFields &Got) {
  int64_t Last = P.timeSteps() - 1;
  for (unsigned F = 0; F < Want.numFields(); ++F) {
    const float *A = Want.slot(F, Last);
    const float *B = Got.slot(F, Last);
    size_t Bytes = Want.pointsPerCopy() * sizeof(float);
    if (std::memcmp(A, B, Bytes) == 0)
      continue;
    int64_t First = -1, Mismatches = 0;
    double MaxErr = 0;
    for (int64_t L = 0; L < Want.pointsPerCopy(); ++L) {
      uint32_t BitsA, BitsB;
      std::memcpy(&BitsA, &A[L], 4);
      std::memcpy(&BitsB, &B[L], 4);
      if (BitsA == BitsB)
        continue;
      if (First < 0)
        First = L;
      ++Mismatches;
      MaxErr = std::max(MaxErr, std::fabs(static_cast<double>(A[L]) - B[L]));
    }
    std::ostringstream OS;
    OS << "field " << P.fields()[F].Name << " step " << Last << ": "
       << Mismatches << " points differ from the naive loop (first at "
       << "index " << First << ": want " << A[First] << ", got " << B[First]
       << "; max |error| " << MaxErr << ")";
    return OS.str();
  }
  return "";
}
