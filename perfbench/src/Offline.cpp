//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline workload, offline_table1: the sixteen benchmarkSuite()
/// generators at a fixed size factor, serialised to .trc text and run
/// through the user path parseTrace -> validateTrace -> replay(FastTrack).
/// This is the paper's own evaluation mix (Table 1).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/FastTrack.h"
#include "detectors/DjitPlus.h"
#include "detectors/EmptyTool.h"
#include "framework/ParallelReplay.h"
#include "framework/Replay.h"
#include "hb/RaceOracle.h"
#include "trace/TraceIO.h"
#include "trace/TraceValidator.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <memory>
#include <set>

using namespace ft;

namespace ftbench {
namespace {

/// Size factor of the measured traces: about 10 M events over the suite,
/// and crypt's 168 k variables reach the paged part of the shadow table.
constexpr double RunFactor = 4.0;
/// Size factor at which the happens-before oracle checks the racy sets
/// (the oracle does not finish at RunFactor).
constexpr double OracleFactor = 0.25;
/// FastTrack replay passes per parsed suite.
constexpr unsigned ReplayPasses = 6;

/// One suite member, serialised once per run.
struct Entry {
  std::string Name;
  unsigned RealRacyVars = 0;
  std::string Text;
  uint64_t Ops = 0;
  TraceValidatorOptions Validate = {};
};


std::vector<Entry> makeSuite(uint64_t Seed) {
  std::vector<Entry> Suite;
  for (const Workload &W : benchmarkSuite()) {
    Trace T = W.Generate(Seed, RunFactor);
    Suite.push_back({W.Name, W.RealRacyVars, serializeTrace(T), T.size()});
  }
  return Suite;
}

/// At OracleFactor, FastTrack's racy set must equal the oracle's, and its
/// size the generator's documented ground truth.
void checkAgainstOracle(uint64_t Seed, RunResult &Result) {
  for (const Workload &W : benchmarkSuite()) {
    Trace T = W.Generate(Seed, OracleFactor);
    FastTrack FT;
    replay(T, FT);
    std::vector<VarId> Oracle = racyVars(T);
    std::set<VarId> Racy = racySet(FT);
    Result.check(Racy == std::set<VarId>(Oracle.begin(), Oracle.end()),
                 W.Name + " @" + std::to_string(OracleFactor) +
                     ": FastTrack racy set differs from the HB oracle's");
    Result.check(Racy.size() == W.RealRacyVars,
                 W.Name + " @" + std::to_string(OracleFactor) +
                     ": racy variables != RealRacyVars");
  }
}

/// Parses and validates \p E into \p Out, counting rejected records as
/// failed. Returns false when the trace cannot be analysed.
bool load(const Entry &E, Trace &Out, SpanRecorder &Spans, RunResult &Result,
          uint64_t *ParseNs = nullptr, uint64_t *ValidateNs = nullptr) {
  uint64_t T0 = nowNs();
  ParseReport Parsed;
  {
    SpanRecorder::Scope S(Spans, "parse", "trace");
    Parsed = parseTrace(E.Text, Out);
  }
  uint64_t T1 = nowNs();
  std::vector<Diagnostic> Violations;
  {
    SpanRecorder::Scope S(Spans, "validate", "trace");
    Violations = validateTrace(Out, E.Validate);
  }
  uint64_t T2 = nowNs();
  if (ParseNs)
    *ParseNs += T1 - T0;
  if (ValidateNs)
    *ValidateNs += T2 - T1;
  Result.check(Parsed.ok() && Parsed.Records == E.Ops,
               E.Name + ": parse rejected records");
  Result.check(Violations.empty(), E.Name + ": trace fails validation");
  if (!Parsed.ok() || !Violations.empty()) {
    Result.Failed += E.Ops;
    return false;
  }
  Result.Failed += E.Ops - Parsed.Records;
  return true;
}

/// Replays \p T through \p Checker; returns the call's duration in ns.
uint64_t timedReplay(const Trace &T, Tool &Checker, const char *Span,
                     const char *Layer, SpanRecorder &Spans,
                     ReplayResult *Out = nullptr) {
  SpanRecorder::Scope S(Spans, Span, Layer);
  uint64_t Start = nowNs();
  ReplayResult R = replay(T, Checker);
  uint64_t Ns = nowNs() - Start;
  if (Out)
    *Out = R;
  return Ns;
}

/// One user-path pass over the suite, trace by trace as a user runs the
/// tool on one file at a time: load the trace (parse, validate, construct
/// the tool; the set-up), then replay it through FastTrack ReplayPasses
/// times, each trace on the next CPU of \p Cpus. Appends one set-up sample
/// (the whole suite's load time) and ReplayPasses throughput samples (pass
/// k of every trace).
void userPass(const std::vector<Entry> &Suite, CpuRotation &Cpus,
              SpanRecorder &Spans, RunResult &Result,
              std::vector<double> &Setup, std::vector<double> &Rate) {
  Spans.newGroup();
  SpanRecorder::Scope Pass(Spans, "suite", "bench");
  uint64_t SetupNs = 0, Events = 0;
  uint64_t PassNs[ReplayPasses] = {};
  for (const Entry &E : Suite) {
    Cpus.next();
    Trace T;
    std::unique_ptr<FastTrack> Tool;
    uint64_t Start = nowNs();
    bool Loaded = load(E, T, Spans, Result);
    {
      SpanRecorder::Scope S(Spans, "construct", "core");
      Tool = std::make_unique<FastTrack>();
    }
    SetupNs += nowNs() - Start;
    Result.Attempted += E.Ops * ReplayPasses;
    if (!Loaded)
      continue;
    Events += T.size();
    for (unsigned P = 0; P != ReplayPasses; ++P) {
      if (P != 0)
        Tool = std::make_unique<FastTrack>();
      ReplayResult R;
      PassNs[P] +=
          timedReplay(T, *Tool, "replay.fasttrack", "core", Spans, &R);
      Result.Failed += T.size() - R.StoppedAtOp;
      Result.check(racySet(*Tool).size() == E.RealRacyVars,
                   E.Name + ": racy variables != RealRacyVars");
    }
  }
  Setup.push_back(double(SetupNs) * 1e-9);
  for (uint64_t Ns : PassNs)
    Rate.push_back(1e9 * double(Events) / double(Ns));
}

/// Layer costs of one trace (ns totals), plus FastTrack's exact counters.
struct LayerSums {
  uint64_t Events = 0, TextBytes = 0, ParseNs = 0, ValidateNs = 0,
           EmptyNs = 0, FastTrackNs = 0, DjitNs = 0, ParallelNs = 0;
  FastTrackRuleStats Rules;
  ClockStats Clocks;
  uint64_t ShadowBytes = 0, ResidentPages = 0;
};

/// Runs every offline layer over \p E: parse, validate, replay through
/// EMPTY, FastTrack, DJIT+ and 2-shard parallel FastTrack. The precise
/// detectors must agree on the racy set; it is returned in \p Racy.
void analyse(const Entry &E, CpuRotation &Cpus, SpanRecorder &Spans,
             RunResult &Result, LayerSums &Sums, std::set<VarId> &Racy) {
  Cpus.next();
  Trace T;
  if (!load(E, T, Spans, Result, &Sums.ParseNs, &Sums.ValidateNs))
    return;
  Sums.Events += T.size();
  Sums.TextBytes += E.Text.size();
  EmptyTool Empty;
  Sums.EmptyNs += timedReplay(T, Empty, "replay.empty", "framework", Spans);
  FastTrack FT;
  ReplayResult R;
  Sums.FastTrackNs +=
      timedReplay(T, FT, "replay.fasttrack", "core", Spans, &R);
  Racy = racySet(FT);
  Sums.Rules += FT.ruleStats();
  Sums.Clocks += R.Clocks;
  Sums.ShadowBytes += R.ShadowBytes;
  Sums.ResidentPages += FT.residentShadowPages();
  DjitPlus Djit;
  Sums.DjitNs += timedReplay(T, Djit, "replay.djitplus", "detectors", Spans);
  Result.check(racySet(Djit) == Racy,
               E.Name + ": DJIT+ and FastTrack racy sets differ");
  FastTrack Sharded;
  Cpus.unpin(); // the two shards get the whole mask
  {
    SpanRecorder::Scope S(Spans, "parallel_replay", "framework");
    ParallelReplayOptions PO;
    PO.NumShards = 2;
    uint64_t Start = nowNs();
    parallelReplay(T, Sharded, PO);
    Sums.ParallelNs += nowNs() - Start;
  }
  Result.check(racySet(Sharded) == Racy,
               E.Name + ": 2-shard parallel replay racy set differs");
}

} // namespace

void reportRuleStats(const FastTrackRuleStats &Rules, RunResult &Result) {
  double Ops = double(Rules.reads() + Rules.writes());
  Result.metric("core.same_epoch_frac",
                double(Rules.ReadSameEpoch + Rules.WriteSameEpoch) / Ops,
                "frac");
  Result.metric("core.fast_path_frac", double(Rules.fastPathOps()) / Ops,
                "frac");
  Result.metric("core.read_share_ops", double(Rules.ReadShare), "count");
  Result.metric("core.write_shared_ops", double(Rules.WriteShared), "count");
}
TraceLayers measureTraceLayers(const Trace &T, SpanRecorder &Spans,
                               RunResult &Result) {
  Entry E{"capture", 0, serializeTrace(T), T.size()};
  // The engine recycles the slot of a joined thread, so an online capture
  // legally forks one tid again after its join.
  E.Validate.AllowTidReuse = true;
  LayerSums S;
  std::set<VarId> Racy;
  CpuRotation Cpus;
  analyse(E, Cpus, Spans, Result, S, Racy);
  double Events = double(S.Events ? S.Events : 1);
  TraceLayers L;
  L.ParseNs = double(S.ParseNs) / Events;
  L.TextBytes = double(S.TextBytes) / Events;
  L.ValidateNs = double(S.ValidateNs) / Events;
  L.EmptyNs = double(S.EmptyNs) / Events;
  L.ParallelNs = double(S.ParallelNs) / Events;
  L.DjitNs = double(S.DjitNs) / Events;
  return L;
}

RunResult runOfflineTable1(const RunOptions &Options, SpanRecorder &Spans) {
  RunResult Result;
  uint64_t Start = nowNs();
  std::vector<Entry> Suite = makeSuite(Options.Seed);
  uint64_t SuiteOps = 0, SuiteBytes = 0;
  for (const Entry &E : Suite) {
    SuiteOps += E.Ops;
    SuiteBytes += E.Text.size();
  }
  checkAgainstOracle(Options.Seed, Result);
  Result.note(fmt("suite: 16 traces at size factor %.2f, %.0f events, "
                  "%.1f MB of text",
                  RunFactor, double(SuiteOps), double(SuiteBytes) / 1e6));
  Result.note(fmt("generate + serialise + oracle check: %.2f s",
                  secondsSince(Start)));

  if (!Options.Traced) {
    std::vector<double> Setup, Rate;
    CpuRotation Cpus;
    Start = nowNs();
    while (Setup.size() < 3 || secondsSince(Start) < Options.Seconds)
      userPass(Suite, Cpus, Spans, Result, Setup, Rate);
    Result.note(fmt("%.0f suite loads, %.0f FastTrack passes; events_per_s "
                    "IQR/median %.4f",
                    double(Setup.size()), double(Rate.size()), iqrFrac(Rate)) +
                fmt("; setup_s IQR/median %.4f", iqrFrac(Setup)));
    Result.metric("setup_s", median(Setup), "s");
    Result.metric("events_per_s", median(Rate), "1/s");
    Result.metric("peak_rss_mb", peakRssMb(), "MB");
    Result.metric("ops_ok_frac",
                  1.0 - double(Result.Failed) / double(Result.Attempted),
                  "frac");
    return Result;
  }

  // Traced: every offline layer per trace, round by round, plus a user
  // pass with and without spans to price the tracing itself.
  std::vector<double> Parse, Validate, Empty, FTNs, Djit, Parallel, Traced,
      Untraced;
  LayerSums Last;
  CpuRotation Cpus;
  Start = nowNs();
  for (unsigned Round = 0;
       Round < 2 || secondsSince(Start) < 0.5 * Options.Seconds; ++Round) {
    LayerSums S;
    Spans.newGroup();
    {
      SpanRecorder::Scope Pass(Spans, "layers", "bench");
      for (const Entry &E : Suite) {
        std::set<VarId> Racy;
        analyse(E, Cpus, Spans, Result, S, Racy);
        Result.check(Racy.size() == E.RealRacyVars,
                     E.Name + ": racy variables != RealRacyVars");
      }
    }
    double Events = double(S.Events);
    Parse.push_back(double(S.ParseNs) / Events);
    Validate.push_back(double(S.ValidateNs) / Events);
    Empty.push_back(double(S.EmptyNs) / Events);
    FTNs.push_back(double(S.FastTrackNs) / Events);
    Djit.push_back(double(S.DjitNs) / Events);
    Parallel.push_back(double(S.ParallelNs) / Events);
    Last = S;

    // Alternate which of the pair runs first, so drift favours neither.
    std::vector<double> Setup, Rate;
    for (bool On : {Round % 2 == 0, Round % 2 != 0}) {
      Spans.Enabled = On;
      uint64_t PassStart = nowNs();
      userPass(Suite, Cpus, Spans, Result, Setup, Rate);
      (On ? Traced : Untraced).push_back(secondsSince(PassStart));
    }
    Spans.Enabled = true;
  }
  Cpus.unpin();
  Result.note(fmt("traced: %.0f rounds over the suite", double(Parse.size())));

  double EmptyNs = median(Empty), FastNs = median(FTNs);
  Result.metric("trace.parse_ns_per_event", median(Parse), "ns");
  Result.metric("trace.text_bytes_per_event",
                double(Last.TextBytes) / double(Last.Events), "B");
  Result.metric("trace.validate_ns_per_event", median(Validate), "ns");

  // The runtime layer does no work offline; its metrics come from the
  // online_mix reference session (marked not applicable here).
  LadderOutcome L;
  measureRuntimeLadder(Options.Seed, /*SyncHeavy=*/false,
                       0.3 * Options.Seconds, Spans, Result, L);
  Result.metric("trace.capture_ns_per_event", L.CaptureNs, "ns");
  Result.metric("trace.capture_growth_x", L.CaptureGrowthX, "x");
  Result.metric("framework.replay_empty_ns_per_event", EmptyNs, "ns");
  Result.metric("framework.parallel_replay_ns_per_event", median(Parallel),
                "ns");
  Result.metric("core.fasttrack_ns_per_event", FastNs, "ns");
  Result.metric("core.rules_ns_per_event", FastNs - EmptyNs, "ns");
  Result.metric("core.ft_slowdown_x", FastNs / EmptyNs, "x");
  reportRuleStats(Last.Rules, Result);
  Result.metric("clock.vc_ops", double(Last.Clocks.totalOps()), "count");
  Result.metric("clock.vc_allocs", double(Last.Clocks.Allocations), "count");
  Result.metric("shadow.bytes", double(Last.ShadowBytes), "B");
  Result.metric("shadow.resident_pages", double(Last.ResidentPages), "count");
  Result.metric("detectors.djitplus_ns_per_event", median(Djit), "ns");
  reportRuntimeLadder(L, Result);
  Result.metric("bench.tracing_overhead_frac",
                median(Traced) / median(Untraced) - 1, "frac");
  for (const char *Name :
       {"trace.capture_ns_per_event", "trace.capture_growth_x",
        "runtime.native_ns_per_op", "runtime.shim_ns_per_event",
        "runtime.pipeline_ns_per_event", "runtime.finish_s",
        "runtime.park_episodes", "runtime.max_backlog",
        "runtime.degradations", "runtime.accesses_shed",
        "runtime.pinned1_ns_per_event", "runtime.unpinned_ns_per_event",
        "bench.ladder_residual_frac"})
    Result.NotApplicable.push_back(Name);
  return Result;
}

} // namespace ftbench
