//===- SelfTest.cpp - Tests of the benchmark's own logic ------------------===//
//
// Span self-time arithmetic and Chrome JSON well-formedness, the
// "highest percentile with at least ten samples beyond it" rule, seed
// determinism of the generated inputs, and the naive -O3 loops agreeing
// with exec::runReference at a tiny size. Prints one line per failed check
// and exits 1 if any failed.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Stats.h"
#include "Trace.h"

#include "exec/Executor.h"
#include "exec/GridStorage.h"
#include "frontend/Parser.h"
#include "ir/StencilGallery.h"

#include <cctype>
#include <cstdio>
#include <string>

using namespace perfbench;
using namespace hextile;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #Cond);            \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

/// Recursive-descent JSON validator (RFC 8259 subset the exporter emits:
/// objects, arrays, strings with escapes, numbers, true/false/null).
class JsonValidator {
public:
  explicit JsonValidator(const std::string &S) : S(S) {}
  bool valid() {
    ws();
    if (!value())
      return false;
    ws();
    return I == S.size();
  }

private:
  void ws() {
    while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
      ++I;
  }
  bool lit(const char *L) {
    size_t N = std::string(L).size();
    if (S.compare(I, N, L) != 0)
      return false;
    I += N;
    return true;
  }
  bool string() {
    if (S[I] != '"')
      return false;
    for (++I; I < S.size(); ++I) {
      if (S[I] == '\\') {
        ++I;
        continue;
      }
      if (S[I] == '"') {
        ++I;
        return true;
      }
      if (static_cast<unsigned char>(S[I]) < 0x20)
        return false;
    }
    return false;
  }
  bool number() {
    size_t Start = I;
    if (S[I] == '-')
      ++I;
    while (I < S.size() && (std::isdigit(static_cast<unsigned char>(S[I])) ||
                            S[I] == '.' || S[I] == 'e' || S[I] == 'E' ||
                            S[I] == '+' || S[I] == '-'))
      ++I;
    return I > Start;
  }
  bool value() {
    if (I >= S.size())
      return false;
    char C = S[I];
    if (C == '{' || C == '[') {
      char Close = C == '{' ? '}' : ']';
      ++I;
      ws();
      if (I < S.size() && S[I] == Close) {
        ++I;
        return true;
      }
      while (true) {
        ws();
        if (C == '{') {
          if (!string())
            return false;
          ws();
          if (I >= S.size() || S[I++] != ':')
            return false;
          ws();
        }
        if (!value())
          return false;
        ws();
        if (I >= S.size())
          return false;
        if (S[I] == ',') {
          ++I;
          continue;
        }
        if (S[I] == Close) {
          ++I;
          return true;
        }
        return false;
      }
    }
    if (C == '"')
      return string();
    if (lit("true") || lit("false") || lit("null"))
      return true;
    return number();
  }
  const std::string &S;
  size_t I = 0;
};

trace::Span span(const char *Name, uint64_t Id, uint64_t Parent, int64_t A,
                 int64_t B) {
  trace::Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = Parent;
  S.StartNs = A;
  S.EndNs = B;
  return S;
}

void testSelfTime() {
  // Parent [0,100) with overlapping children [10,30) and [20,50) and a
  // disjoint one [70,80): covered 50, self 50. The grandchild [25,28)
  // reduces only its own parent's self time.
  std::vector<trace::Span> Spans = {
      span("bench.round", 1, 0, 0, 100),   span("exec.check", 2, 1, 10, 30),
      span("exec.check", 3, 1, 20, 50),    span("core.key_eval", 4, 1, 70, 80),
      span("exec.reference", 5, 2, 25, 28), span("bench.fill", 6, 0, 150, 200),
  };
  std::vector<int64_t> Self = trace::selfTimes(Spans);
  CHECK(Self[0] == 50);
  CHECK(Self[1] == 17);
  CHECK(Self[2] == 30);
  CHECK(Self[3] == 10);
  CHECK(Self[4] == 3);
  CHECK(Self[5] == 50);
  auto ByLayer = trace::selfTimeByLayer(Spans);
  CHECK(ByLayer["bench"] == 100);
  CHECK(ByLayer["exec"] == 50);
  CHECK(ByLayer["core"] == 10);
  // Top-level spans cover [0,100) and [150,200) of [0,200): 75%; of the
  // windows [90,110) and [140,160): 10 + 10 of 40.
  CHECK(trace::topLevelCoverage(Spans, {{0, 200}}) == 0.75);
  CHECK(trace::topLevelCoverage(Spans, {{0, 100}}) == 1.0);
  CHECK(trace::topLevelCoverage(Spans, {{90, 110}, {140, 160}}) == 0.5);

  std::string Json = trace::chromeJson(Spans);
  CHECK(JsonValidator(Json).valid());
  CHECK(Json.find("\"ph\":\"X\"") != std::string::npos);
  Spans.push_back(span("bench.\"quoted\\name", 7, 0, 1, 2));
  CHECK(JsonValidator(trace::chromeJson(Spans)).valid());
  CHECK(JsonValidator(trace::chromeJson({})).valid());
  CHECK(!JsonValidator("{\"a\":}").valid());
}

void testRecorder() {
  trace::clear();
  trace::setEnabled(true);
  {
    trace::Scope Outer("bench.outer", 7);
    trace::Scope Inner("exec.inner");
  }
  trace::setEnabled(false);
  { trace::Scope Ignored("bench.off"); }
  std::vector<trace::Span> Spans = trace::snapshot();
  CHECK(Spans.size() == 2);
  if (Spans.size() == 2) {
    const trace::Span &Inner = Spans[0], &Outer = Spans[1];
    CHECK(std::string(Inner.Name) == "exec.inner");
    CHECK(Inner.Parent == Outer.Id);
    CHECK(Outer.Parent == 0);
    CHECK(Outer.Request == 7);
    CHECK(Inner.StartNs >= Outer.StartNs && Inner.EndNs <= Outer.EndNs);
  }
  trace::clear();
}

void testTailRule() {
  auto Samples = [](size_t N) {
    std::vector<double> V;
    for (size_t I = 0; I < N; ++I)
      V.push_back(static_cast<double>(N - I)); // Unsorted on purpose.
    return V;
  };
  Tail T = tailOf(Samples(1000));
  CHECK(T.Percentile == 99.0 && T.Beyond == 10 && T.Value == 990.0);
  T = tailOf(Samples(999)); // p99 would leave only 9 beyond.
  CHECK(T.Percentile == 95.0 && T.Beyond == 49);
  T = tailOf(Samples(10010)); // The ladder stops at p99.
  CHECK(T.Percentile == 99.0 && T.Beyond == 100);
  T = tailOf(Samples(124));
  CHECK(T.Percentile == 90.0 && T.Beyond == 12);
  T = tailOf(Samples(48));
  CHECK(T.Percentile == 75.0 && T.Beyond == 12);
  T = tailOf(Samples(16)); // Too few: falls back to the median.
  CHECK(T.Beyond < MinBeyond && T.Value == 8.5);
  CHECK(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5);
  CHECK(geomean({1, 4}) == 2 && geomean({1, 0}) == 0);
}

void testSeeds() {
  CHECK(zipfStream(42, 96, 1200, 1.0) == zipfStream(42, 96, 1200, 1.0));
  CHECK(zipfStream(42, 96, 1200, 1.0) != zipfStream(43, 96, 1200, 1.0));
  std::vector<uint32_t> S = zipfStream(7, 96, 5000, 1.0);
  size_t Hot = 0;
  for (uint32_t K : S) {
    CHECK(K < 96);
    Hot += K == S[0];
  }
  CHECK(Hot > 1); // Zipf: popular keys repeat.
  CHECK(inputValue(5, 0, 123) == inputValue(5, 0, 123));
  CHECK(inputValue(5, 0, 123) != inputValue(6, 0, 123));
  ir::StencilProgram P = ir::makeJacobi2D(16, 3);
  FlatFields A(P), B(P);
  A.fill(9);
  B.fill(9);
  CHECK(compareFinal(P, A, B).empty());
  B.fill(10);
  CHECK(!compareFinal(P, A, B).empty());
  for (int64_t L = 0; L < 256; ++L) {
    float V = inputValue(1, 0, L);
    CHECK(V >= -1.0f && V < 1.0f);
  }
}

void testNaiveMatchesReference() {
  for (ir::StencilProgram P :
       {ir::makeJacobi2D(13, 5), ir::makeHeat3D(7, 4)}) {
    CHECK(hasNaiveLoop(P));
    exec::GridStorage Want(P, seededInit(11, P.spaceSizes()));
    exec::runReference(P, Want);
    FlatFields Got(P);
    Got.fill(11);
    runNaive(P, Got);
    std::string Diff =
        exec::compareStoragesAtStep(Want, Got, P.timeSteps() - 1);
    if (!Diff.empty())
      std::printf("%s: %s\n", P.name().c_str(), Diff.c_str());
    CHECK(Diff.empty());
  }
  CHECK(!hasNaiveLoop(ir::makeHeat2D(8, 2)));
  // Re-parsed source text carries the printed coefficient; the naive loop
  // must follow the program, not the gallery constant.
  frontend::ParseResult Parsed =
      frontend::parseStencilProgram(ir::makeHeat3D(7, 3).str(), "heat3d");
  CHECK(Parsed.ok() && hasNaiveLoop(Parsed.Program));
  if (Parsed.ok()) {
    const ir::StencilProgram &P = Parsed.Program;
    exec::GridStorage Want(P, seededInit(3, P.spaceSizes()));
    exec::runReference(P, Want);
    FlatFields Got(P);
    Got.fill(3);
    runNaive(P, Got);
    CHECK(exec::compareStoragesAtStep(Want, Got, P.timeSteps() - 1).empty());
  }
}

} // namespace

int main() {
  testSelfTime();
  testRecorder();
  testTailRule();
  testSeeds();
  testNaiveMatchesReference();
  std::printf("%s (%d failed checks)\n", Failures ? "FAIL" : "PASS",
              Failures);
  return Failures ? 1 : 0;
}
