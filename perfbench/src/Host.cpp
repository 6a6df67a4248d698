//===- Host.cpp - Host fingerprint and process measurements ---------------===//

#include "Host.h"

#include "service/JitUnit.h"

#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

std::string cpuBrand() {
  unsigned Regs[12] = {};
  unsigned MaxExt = __get_cpuid_max(0x80000000u, nullptr);
  if (MaxExt < 0x80000004u)
    return "unknown";
  for (unsigned Leaf = 0; Leaf < 3; ++Leaf)
    __get_cpuid(0x80000002u + Leaf, &Regs[4 * Leaf], &Regs[4 * Leaf + 1],
                &Regs[4 * Leaf + 2], &Regs[4 * Leaf + 3]);
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S(Brand);
  size_t First = S.find_first_not_of(' ');
  return First == std::string::npos ? "unknown" : S.substr(First);
}

/// First line of `<Compiler> --version`, or "unknown".
std::string compilerVersion(const std::string &Compiler) {
  if (Compiler.empty())
    return "unknown";
  std::string Cmd = "'" + Compiler + "' --version 2>/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return "unknown";
  char Line[256] = {};
  bool Got = std::fgets(Line, sizeof(Line), P) != nullptr;
  char Rest[256];
  while (std::fgets(Rest, sizeof(Rest), P))
    ;
  pclose(P);
  std::string S = Got ? Line : "unknown";
  while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
    S.pop_back();
  return S;
}

} // namespace

std::string perfbench::jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

HostInfo perfbench::probeHost() {
  HostInfo H;
  H.CpuModel = cpuBrand();
  H.Nproc = std::thread::hardware_concurrency();
  long L3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  long L2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  H.LlcBytes = L3 > 0 ? L3 : (L2 > 0 ? L2 : 0);
  H.BenchCompiler = PERFBENCH_CXX_COMPILER;
  H.BenchCompilerVersion = __VERSION__;
  H.JitCompiler = hextile::service::JitUnit::systemCompiler();
  H.JitCompilerVersion = compilerVersion(H.JitCompiler);
  H.JitFlags = PERFBENCH_JIT_FLAGS;
#ifdef NDEBUG
  H.AssertionsArmed = false;
#else
  H.AssertionsArmed = true;
#endif
  return H;
}

std::string HostInfo::json() const {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(LlcBytes));
  return "{\"cpu_model\":\"" + jsonEscape(CpuModel) +
         "\",\"nproc\":" + std::to_string(Nproc) + ",\"llc_bytes\":" + Buf +
         ",\"bench_compiler\":\"" + jsonEscape(BenchCompiler) +
         "\",\"bench_compiler_version\":\"" +
         jsonEscape(BenchCompilerVersion) + "\",\"jit_compiler\":\"" +
         jsonEscape(JitCompiler) + "\",\"jit_compiler_version\":\"" +
         jsonEscape(JitCompilerVersion) + "\",\"jit_flags\":\"" +
         jsonEscape(JitFlags) + "\",\"assertions_armed\":" +
         (AssertionsArmed ? "true" : "false") + "}";
}

double perfbench::peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}
