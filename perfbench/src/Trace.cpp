//===- Trace.cpp - The benchmark's span recorder --------------------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

using namespace perfbench;
using namespace perfbench::trace;

namespace {

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextId{1};
std::atomic<uint32_t> NextTid{1};

std::mutex SpansM; ///< Guards Spans.
std::vector<Span> Spans;

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<uint64_t> OpenStack;

uint32_t threadId() {
  thread_local uint32_t Tid = NextTid.fetch_add(1);
  return Tid;
}

/// Length of the union of \p Intervals clipped to [Lo, Hi).
int64_t unionLength(std::vector<std::pair<int64_t, int64_t>> &Intervals,
                    int64_t Lo, int64_t Hi) {
  std::sort(Intervals.begin(), Intervals.end());
  int64_t Covered = 0, Reach = Lo;
  for (auto [A, B] : Intervals) {
    A = std::max(A, Reach);
    B = std::min(B, Hi);
    if (B > A) {
      Covered += B - A;
      Reach = B;
    }
  }
  return Covered;
}

void appendEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      Out += '\\';
    Out += *S;
  }
}

} // namespace

int64_t trace::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void trace::setEnabled(bool On) { Enabled.store(On); }
bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char *Name, int64_t Request) {
  if (!enabled())
    return;
  Active = true;
  S.Name = Name;
  S.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = OpenStack.empty() ? 0 : OpenStack.back();
  S.Tid = threadId();
  S.Request = Request;
  OpenStack.push_back(S.Id);
  S.StartNs = nowNs();
}

Scope::~Scope() {
  if (!Active)
    return;
  S.EndNs = nowNs();
  OpenStack.pop_back();
  std::lock_guard<std::mutex> Lock(SpansM);
  Spans.push_back(S);
}

std::vector<Span> trace::snapshot() {
  std::lock_guard<std::mutex> Lock(SpansM);
  return Spans;
}

void trace::clear() {
  std::lock_guard<std::mutex> Lock(SpansM);
  Spans.clear();
}

std::string trace::chromeJson(const std::vector<Span> &All) {
  int64_t Origin = 0;
  for (size_t I = 0; I < All.size(); ++I)
    if (I == 0 || All[I].StartNs < Origin)
      Origin = All[I].StartNs;
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Buf[256];
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    const char *Dot = S.Name;
    while (*Dot && *Dot != '.')
      ++Dot;
    std::string Layer(S.Name, Dot);
    Out += I ? ",{\"name\":\"" : "{\"name\":\"";
    appendEscaped(Out, S.Name);
    Out += "\",\"cat\":\"";
    appendEscaped(Out, Layer.c_str());
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%lld}}",
                  S.Tid, (S.StartNs - Origin) / 1e3,
                  (S.EndNs - S.StartNs) / 1e3,
                  static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent),
                  static_cast<long long>(S.Request));
    Out += Buf;
  }
  Out += "]}\n";
  return Out;
}

std::vector<int64_t> trace::selfTimes(const std::vector<Span> &All) {
  std::unordered_map<uint64_t, size_t> IndexOf;
  for (size_t I = 0; I < All.size(); ++I)
    IndexOf[All[I].Id] = I;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(All.size());
  for (const Span &S : All) {
    auto It = IndexOf.find(S.Parent);
    if (S.Parent != 0 && It != IndexOf.end())
      Children[It->second].push_back({S.StartNs, S.EndNs});
  }
  std::vector<int64_t> Self(All.size());
  for (size_t I = 0; I < All.size(); ++I)
    Self[I] = (All[I].EndNs - All[I].StartNs) -
              unionLength(Children[I], All[I].StartNs, All[I].EndNs);
  return Self;
}

std::map<std::string, int64_t>
trace::selfTimeByLayer(const std::vector<Span> &All) {
  std::vector<int64_t> Self = selfTimes(All);
  std::map<std::string, int64_t> ByLayer;
  for (size_t I = 0; I < All.size(); ++I) {
    std::string Name = All[I].Name;
    ByLayer[Name.substr(0, Name.find('.'))] += Self[I];
  }
  return ByLayer;
}

double trace::topLevelCoverage(const std::vector<Span> &All,
                               const std::vector<Window> &Windows) {
  std::vector<std::pair<int64_t, int64_t>> Top;
  for (const Span &S : All)
    if (S.Parent == 0)
      Top.push_back({S.StartNs, S.EndNs});
  int64_t Covered = 0, Total = 0;
  for (auto [From, To] : Windows) {
    Covered += unionLength(Top, From, To);
    Total += To - From;
  }
  return Total > 0 ? static_cast<double>(Covered) / Total : 0;
}
