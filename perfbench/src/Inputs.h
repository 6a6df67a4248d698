//===- Inputs.h - Seeded inputs, flat fields, naive loops -------*- C++ -*-===//
//
// Part of the hextile benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a workload feeds the program is derived from the --seed
/// argument here, so one seed always gives the same inputs: initial field
/// values, the Zipf request stream and the replay shuffles. The program
/// receives only the generated inputs.
///
/// Also the benchmark-owned pieces the emitted kernels are measured and
/// checked against: flat rotating field buffers in the layout the emitted
/// `<name>_run(float **)` entry consumes (exec::GridStorage's layout), and
/// the naive -O3 time loops that are the speed-of-light reference.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "exec/FieldStorage.h"
#include "ir/StencilProgram.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64 finalizer.
uint64_t mix64(uint64_t X);

/// Uniform double in [0, 1) from \p *State (SplitMix64 stream).
double uniform01(uint64_t &State);

/// Initial value of \p Field at row-major point index \p Linear: uniform
/// in [-1, 1), a pure function of the seed.
float inputValue(uint64_t Seed, unsigned Field, int64_t Linear);

/// exec::Initializer producing inputValue for a grid of \p Sizes.
hextile::exec::Initializer seededInit(uint64_t Seed,
                                      std::vector<int64_t> Sizes);

/// \p Count draws from a Zipf(\p Exponent) law over \p NumKeys keys. Which
/// key holds which popularity rank is a seeded permutation, so different
/// seeds make different keys hot.
std::vector<uint32_t> zipfStream(uint64_t Seed, uint32_t NumKeys,
                                 size_t Count, double Exponent);

/// Rotating field buffers in exec::GridStorage layout (field F holds
/// bufferDepth(F) consecutive copies of the row-major grid). Allocation
/// first-touches every page.
class FlatFields final : public hextile::exec::FieldStorage {
public:
  explicit FlatFields(const hextile::ir::StencilProgram &P);

  /// Writes the seeded initial values into every rotating copy.
  void fill(uint64_t Seed);
  /// Copies every buffer of \p O (same program shape).
  void copyFrom(const FlatFields &O);
  /// The per-field base pointers the emitted entry point takes.
  std::vector<float *> pointers();
  /// Copy of \p Field holding time step \p T.
  float *slot(unsigned Field, int64_t T);
  const float *slot(unsigned Field, int64_t T) const;
  int64_t pointsPerCopy() const { return PointsPerCopy; }
  /// Bytes of all buffers.
  int64_t bytes() const;

  const char *kind() const override { return "perfbench-flat"; }
  unsigned numFields() const override { return Depths.size(); }
  unsigned depth(unsigned Field) const override { return Depths[Field]; }
  const std::vector<int64_t> &sizes() const override { return Extents; }
  float read(unsigned Field, int64_t T,
             std::span<const int64_t> Coords) const override;
  void write(unsigned Field, int64_t T, std::span<const int64_t> Coords,
             float V) override;

private:
  int64_t linear(std::span<const int64_t> Coords) const;

  std::vector<int64_t> Extents;
  int64_t PointsPerCopy = 0;
  std::vector<unsigned> Depths;
  std::vector<std::vector<float>> Buffers;
};

/// True when the benchmark owns a naive loop for \p P (jacobi2d, heat3d).
bool hasNaiveLoop(const hextile::ir::StencilProgram &P);

/// Runs every time step of \p P on \p Fields with the naive row-major loop
/// compiled at -O3: the speed-of-light reference. Evaluates each point in
/// the statement's own operation order, so results are bit-exact with
/// exec::runReference.
void runNaive(const hextile::ir::StencilProgram &P, FlatFields &Fields);

/// Compares the final step of every field; "" when bit-identical, else a
/// diagnostic naming the first mismatch and the largest absolute error.
std::string compareFinal(const hextile::ir::StencilProgram &P,
                         const FlatFields &Want, const FlatFields &Got);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
