//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the ftbench harness: run options, timing and
/// statistics helpers, the metric sink, and the in-memory span recorder
/// used by traced runs. The harness sits outside the detector and times
/// calls into each layer's public functions; nothing here reaches into
/// the detector's internals.
///
//===----------------------------------------------------------------------===//

#ifndef FTBENCH_BENCH_H
#define FTBENCH_BENCH_H

#include "clock/ClockStats.h"
#include "core/FastTrack.h"
#include "framework/Tool.h"
#include "trace/Trace.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ftbench {

/// Command-line options of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  /// Directory results and spans are written to ("" = none).
  std::string OutDir;
};

/// Monotonic nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds since \p StartNs.
inline double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Quartiles (Q1, Q3) as Python's statistics.quantiles(V, n=4) computes
/// them (the "exclusive" method); both are the single value when
/// |V| < 2.
std::pair<double, double> quartiles(std::vector<double> V);

/// Interquartile range as a share of the median.
double iqrFrac(const std::vector<double> &V);

/// snprintf into a string, for notes.
std::string fmt(const char *Format, double A, double B = 0, double C = 0);

/// The variables a tool's warnings name.
std::set<ft::VarId> racySet(const ft::Tool &T);

/// One reported metric.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one workload run produced: its metrics in report order, the
/// correctness verdict, and the work counters of the result line.
struct RunResult {
  std::vector<std::pair<std::string, Metric>> Metrics;
  /// Per-layer metrics measured on a stand-in because the layer does no
  /// work on this workload (see perfbench/README.md).
  std::vector<std::string> NotApplicable;
  /// Human-readable notes printed before the result line and kept in the
  /// results file (sample counts, spreads, ledger checks).
  std::vector<std::string> Notes;
  std::vector<std::string> Errors; ///< Failed correctness checks.
  uint64_t Attempted = 0; ///< Events offered for analysis.
  uint64_t Failed = 0;    ///< Events not analysed at full fidelity.

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records a failed check once, however often it fails.
  void error(std::string Line) {
    if (std::find(Errors.begin(), Errors.end(), Line) == Errors.end())
      Errors.push_back(std::move(Line));
  }
  /// Records \p Check as an error when it is false.
  void check(bool Check, const std::string &What) {
    if (!Check)
      error(What);
  }
};

/// Records spans around calls into the detector's layers. Spans live in
/// memory; the run writes them out when it ends. Each span names its
/// layer, so self time per layer is the span's duration minus the part
/// its children cover. A disabled recorder costs one branch per span.
class SpanRecorder {
public:
  struct Span {
    std::string Name;
    std::string Layer;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int Parent = -1;   ///< Index of the enclosing span, -1 for roots.
    uint64_t Group = 0; ///< Shared by the spans of one session or pass.
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name, const char *Layer);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &R;
    int Index;
  };

  bool Enabled = false;

  /// Starts a new group (a session, a suite pass); returns its id.
  uint64_t newGroup() { return ++CurrentGroup; }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time (ns) per layer: each span's duration minus the union of its
  /// direct children's intervals, summed by the span's layer.
  std::map<std::string, uint64_t> selfNsByLayer() const;

  /// Writes every span as JSON to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint64_t CurrentGroup = 0;
};

/// Pins the calling thread, and so every thread it creates afterwards, to
/// one CPU of its affinity mask at a time. next() pins to the next CPU
/// round-robin, at most once per 100 ms; unpin() and the destructor
/// restore the whole mask. On a shared host one CPU at a time runs slow
/// for seconds (a busy hyperthread sibling); spreading a run's samples
/// over every CPU keeps such an episode from setting the run's median.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void next();
  void unpin();

private:
  cpu_set_t Saved{};
  std::vector<int> Cpus;
  size_t Next = 0;
  bool Pinned = false;
  uint64_t LastStepNs = 0;
};

/// The per-layer metric names every traced run reports, in report order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Workload entry points (Offline.cpp, Online.cpp).
RunResult runOfflineTable1(const RunOptions &Options, SpanRecorder &Spans);
RunResult runOnline(const RunOptions &Options, SpanRecorder &Spans,
                    bool SyncHeavy);

/// The online stage ladder's medians (ns per emitted event).
struct LadderOutcome {
  double NativeNs = 0, ShimNs = 0, PipelineNs = 0, CaptureNs = 0,
         RulesNs = 0, FastTrackNs = 0, EmptyNs = 0, UnpinnedNs = 0;
  double FinishS = 0, CaptureGrowthX = 0, ResidualFrac = 0,
         TracingOverheadFrac = 0;
  /// Counters of the last FastTrack session.
  uint64_t ParkEpisodes = 0, MaxBacklog = 0, AccessesShed = 0;
  unsigned Degradations = 0;
};

/// Runs the stage ladder (native, pass-through, EMPTY with capture off,
/// EMPTY, FastTrack) on one CPU, round by round for about \p Budget
/// seconds, then the 4x-length capture-growth sessions and FastTrack
/// sessions on the whole CPU mask.
void measureRuntimeLadder(uint64_t Seed, bool SyncHeavy, double Budget,
                          SpanRecorder &Spans, RunResult &Result,
                          LadderOutcome &Out);

/// Reports the runtime.* per-layer metrics of \p L and its residual.
void reportRuntimeLadder(const LadderOutcome &L, RunResult &Result);

/// Offline layer costs of one trace, timed around the public calls.
struct TraceLayers {
  double ParseNs = 0, TextBytes = 0, ValidateNs = 0, EmptyNs = 0,
         ParallelNs = 0, DjitNs = 0;
};

/// Serialises \p T, then times parse, validate and replay (EMPTY,
/// FastTrack, DJIT+, 2-shard parallel) on it, checking that every replay
/// reports FastTrack's racy variables.
TraceLayers measureTraceLayers(const ft::Trace &T, SpanRecorder &Spans,
                               RunResult &Result);

/// Reports the core.* rule-count metrics.
void reportRuleStats(const ft::FastTrackRuleStats &Rules, RunResult &Result);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peakRssMb();

} // namespace ftbench

#endif // FTBENCH_BENCH_H
