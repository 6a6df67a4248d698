//===- Host.h - Host fingerprint and process measurements ------*- C++ -*-===//
//
// Part of the hextile benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a result must record about the machine it ran on (the best tiling
/// depends on the device): CPU model, hardware threads, last-level cache
/// size, both compilers and the JIT flags. Everything is read without
/// touching files: cpuid, sysconf and getrusage.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  std::string CpuModel;
  unsigned Nproc = 0;
  int64_t LlcBytes = 0;        ///< Last-level cache size (0 = unknown).
  std::string BenchCompiler;   ///< Compiler that built this binary.
  std::string BenchCompilerVersion;
  std::string JitCompiler;     ///< JitUnit::systemCompiler() ("" = none).
  std::string JitCompilerVersion;
  std::string JitFlags;        ///< The JIT command line in JitUnit.cpp.
  bool AssertionsArmed = false;

  std::string json() const;
};

HostInfo probeHost();

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Escapes \p S as the body of a JSON string.
std::string jsonEscape(const std::string &S);

} // namespace perfbench

#endif // PERFBENCH_HOST_H
