//===- Trace.h - The benchmark's span recorder -----------------*- C++ -*-===//
//
// Part of the hextile benchmark (perfbench).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped spans recorded around calls into the library's layers, kept in
/// memory and exported as Chrome trace-event JSON (Perfetto and
/// chrome://tracing open it offline). A span has a name, start, end, the
/// span that was open on the same thread when it started (its parent) and
/// an optional request id. With the recorder disabled a scope costs one
/// relaxed atomic load.
///
/// Span names are "<layer>.<what>" string literals; the layer prefix is
/// what self-time shares are grouped by.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {
namespace trace {

struct Span {
  const char *Name = "";
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = top-level.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint32_t Tid = 0;
  int64_t Request = -1; ///< Request id (serve workloads), -1 when none.
};

/// Monotonic clock in nanoseconds (steady_clock).
int64_t nowNs();

void setEnabled(bool On);
bool enabled();

/// Records one span from construction to destruction (when enabled).
class Scope {
public:
  explicit Scope(const char *Name, int64_t Request = -1);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Span S;
  bool Active = false;
};

/// Every span recorded so far (all threads), in completion order.
std::vector<Span> snapshot();
/// Drops every recorded span.
void clear();

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps
/// relative to the earliest span) for \p Spans.
std::string chromeJson(const std::vector<Span> &Spans);

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Indexed like
/// \p Spans.
std::vector<int64_t> selfTimes(const std::vector<Span> &Spans);

/// Self time summed per layer (the span-name prefix before the first '.').
std::map<std::string, int64_t> selfTimeByLayer(const std::vector<Span> &Spans);

/// A [start, end) interval in nowNs() time.
using Window = std::pair<int64_t, int64_t>;

/// Share of the (disjoint) \p Windows covered by the union of the
/// top-level spans.
double topLevelCoverage(const std::vector<Span> &Spans,
                        const std::vector<Window> &Windows);

} // namespace trace
} // namespace perfbench

#endif // PERFBENCH_TRACE_H
