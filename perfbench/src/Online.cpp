//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online workloads: a native two-producer program run under
/// runtime::Engine at default OnlineOptions (Shards=1, capture kept and
/// validated, ladder and supervisor on).
///
///   online_mix   the paper's event mix, about 82 % reads, 15 % writes and
///                3.3 % sync: per-thread slices, a read-shared table the
///                main thread writes before the fork, and lock-striped
///                counters. Long access runs between sync events.
///   online_sync  lock -> read -> write -> unlock on 4 striped counters:
///                half of all events are sync.
///
/// A session runs in rounds: the main thread forks two producers and joins
/// them, again and again. In every round each producer first writes two
/// shared variables before it synchronises at all, so exactly those two
/// variables race under every interleaving; every other access is
/// race-free by construction.
///
/// The traced run adds the stage ladder (native, pass-through, EMPTY with
/// capture off, EMPTY, FastTrack) whose differences attribute the
/// FastTrack session's cost to the runtime's layers.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/FastTrack.h"
#include "detectors/EmptyTool.h"
#include "framework/Replay.h"
#include "runtime/Instrument.h"
#include "support/Rng.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

namespace rt = ft::runtime;
using namespace ft;

namespace ftbench {
namespace {

constexpr unsigned Producers = 2;
constexpr unsigned Stripes = 4;
constexpr unsigned SliceVars = 256; ///< Per-producer private variables.
constexpr unsigned TableVars = 512; ///< Read-shared after the first fork.

/// Codes one mix block consumes: a stripe, then 8 groups of 3 slice
/// reads, 3 table reads and 1 slice write.
constexpr unsigned MixGroups = 8;
constexpr unsigned MixCodesPerBlock = 1 + MixGroups * 7;
/// Events one mix block emits: acq rd wr rel + 8 x 7 accesses.
constexpr uint64_t MixEventsPerBlock = 4 + MixGroups * 7;

/// Steps per producer per round, and rounds per session at 1x length.
/// At default options the supervisor steps the ladder down once a thread
/// has been parked on a full event ring at two consecutive 5 ms ticks,
/// and a flat-out producer outruns the sequencer; a host that stalls a
/// session for a few milliseconds would then decide its fidelity. So no
/// thread of a session emits as many events as its ring holds
/// (RingCapacity, 1024): a producer emits 962 events per round, the main
/// thread 512 + 4 per round, and no thread ever parks. Rounds give the
/// session its length; the engine recycles the slots of joined threads.
constexpr unsigned MixBlocks = 16;  // 2 + 16 x 60 = 962 per producer
constexpr unsigned SyncSteps = 240; // 2 + 240 x 4 = 962 per producer
constexpr unsigned MixRounds = 14;  // 14 x (2 x 962 + 4) + 512 = 27,504
constexpr unsigned SyncRounds = 6;  // 6 x (2 x 962 + 4) = 11,568

/// The generated inputs of one online session: per producer, the
/// sequence of indices its steps walk. The program sees only these.
struct SessionInputs {
  bool SyncHeavy = false;
  unsigned Steps = 0;  ///< Blocks (mix) or lock steps (sync) per round.
  unsigned Rounds = 0; ///< Fork/join rounds per session.
  /// Per producer, the codes of all its rounds, one round after another.
  std::vector<std::vector<uint16_t>> Codes;

  unsigned codesPerRound() const {
    return Steps * (SyncHeavy ? 1 : MixCodesPerBlock);
  }
  /// Events one producer emits in one round.
  uint64_t producerEvents() const {
    return 2 + uint64_t(Steps) * (SyncHeavy ? 4 : MixEventsPerBlock);
  }
  /// Events the main thread emits: the table, then fork/join per round.
  uint64_t mainEvents() const {
    return (SyncHeavy ? 0 : TableVars) + uint64_t(Rounds) * 2 * Producers;
  }
  /// Events the program emits, fixed by construction.
  uint64_t events() const {
    return uint64_t(Rounds) * Producers * producerEvents() + mainEvents();
  }
};

/// Inputs of one session of \p Scale times the standard length.
SessionInputs makeSessionInputs(uint64_t Seed, bool SyncHeavy,
                                unsigned Scale) {
  SessionInputs In;
  In.SyncHeavy = SyncHeavy;
  In.Steps = SyncHeavy ? SyncSteps : MixBlocks;
  In.Rounds = (SyncHeavy ? SyncRounds : MixRounds) * Scale;
  const unsigned Steps = In.Steps * In.Rounds;
  Xoshiro256StarStar R(Seed * 0x9e3779b97f4a7c15ull + (SyncHeavy ? 17 : 5));
  for (unsigned P = 0; P != Producers; ++P) {
    std::vector<uint16_t> C;
    if (SyncHeavy) {
      C.resize(Steps);
      for (uint16_t &S : C)
        S = static_cast<uint16_t>(R.nextBelow(Stripes));
    } else {
      C.reserve(size_t(Steps) * MixCodesPerBlock);
      for (unsigned B = 0; B != Steps; ++B) {
        C.push_back(static_cast<uint16_t>(R.nextBelow(Stripes)));
        for (unsigned G = 0; G != MixGroups; ++G) {
          for (unsigned K = 0; K != 3; ++K)
            C.push_back(static_cast<uint16_t>(R.nextBelow(SliceVars)));
          for (unsigned K = 0; K != 3; ++K)
            C.push_back(static_cast<uint16_t>(R.nextBelow(TableVars)));
          C.push_back(static_cast<uint16_t>(R.nextBelow(SliceVars)));
        }
      }
    }
    In.Codes.push_back(std::move(C));
  }
  return In;
}

/// One online session under runtime::Engine at default OnlineOptions.
struct SessionConfig {
  const SessionInputs *In = nullptr;
  bool Fast = true;         ///< FastTrack; false runs the EMPTY tool.
  bool Capture = true;      ///< Default capture; false turns it off.
  bool KeepCapture = false; ///< Hand the capture back in the outcome.
  /// Pause between Engine construction and the first fork (see
  /// runSession); drawn from the seed by SessionOffsets.
  unsigned OffsetUs = 0;
};

/// Seed-derived start offsets, uniform over one supervisor tick.
class SessionOffsets {
public:
  explicit SessionOffsets(uint64_t Seed) : State(Seed) {}

  unsigned next() {
    State += 0x9e3779b97f4a7c15ull;
    const uint64_t TickUs = 1000ull * rt::OnlineOptions().Supervise.TickMs;
    return static_cast<unsigned>(splitMix64(State) % (TickUs ? TickUs : 1));
  }

private:
  uint64_t State;
};

struct SessionOutcome {
  uint64_t Emitted = 0;
  uint64_t NotFull = 0;  ///< Events not analysed at full fidelity.
  double SetupS = 0;     ///< Engine construction.
  double FinishS = 0;    ///< Engine::finish().
  double NsPerEvent = 0; ///< First fork until finish() returns.
  uint64_t ParkEpisodes = 0, MaxBacklog = 0, AccessesShed = 0;
  unsigned Degradations = 0;
  ClockStats Clocks;
  FastTrackRuleStats Rules;
  size_t ShadowBytes = 0, ResidentPages = 0;
  Trace Captured;
};

/// The uninstrumented cell: the same relaxed-atomic storage Shared<int>
/// uses, so the native baseline differs from the instrumented program
/// only by the instrumentation.
struct NativeCell {
  std::atomic<int> V{0};
  int read() const { return V.load(std::memory_order_relaxed); }
  void write(int X) { V.store(X, std::memory_order_relaxed); }
};

/// The program, generic over its primitives so the identical code runs
/// native and instrumented.
template <typename MutexT, typename CellT, typename ThreadT> class Program {
public:
  explicit Program(const SessionInputs &In)
      : In(In), Table(TableVars), Slices(Producers * SliceVars) {}

  /// The main thread's writes before the first fork (the read-shared
  /// table).
  void prepare() {
    if (In.SyncHeavy)
      return;
    for (unsigned I = 0; I != TableVars; ++I)
      Table[I].write(static_cast<int>(I));
  }

  /// Each round forks the producers and joins them.
  void forkJoin() {
    for (unsigned Round = 0; Round != In.Rounds; ++Round) {
      std::vector<ThreadT> Threads;
      Threads.reserve(Producers);
      for (unsigned P = 0; P != Producers; ++P)
        Threads.emplace_back([this, P, Round] { body(P, Round); });
      for (ThreadT &T : Threads)
        T.join();
    }
  }

  CellT RaceA, RaceB;

private:
  void body(unsigned P, unsigned Round) {
    // Both producers write these before their first sync event: a race
    // under every interleaving.
    RaceA.write(static_cast<int>(P));
    RaceB.write(static_cast<int>(P));
    const uint16_t *C =
        In.Codes[P].data() + size_t(Round) * In.codesPerRound();
    if (In.SyncHeavy) {
      for (unsigned I = 0; I != In.Steps; ++I)
        bump(C[I]);
      return;
    }
    CellT *Mine = &Slices[P * SliceVars];
    for (unsigned B = 0; B != In.Steps; ++B) {
      bump(*C++);
      int Acc = 0;
      for (unsigned G = 0; G != MixGroups; ++G) {
        Acc += Mine[C[0]].read() + Mine[C[1]].read() + Mine[C[2]].read();
        Acc += Table[C[3]].read() + Table[C[4]].read() + Table[C[5]].read();
        Mine[C[6]].write(Acc);
        C += 7;
      }
    }
  }

  void bump(unsigned S) {
    std::lock_guard<MutexT> Guard(Locks[S]);
    Counters[S].write(Counters[S].read() + 1);
  }

  const SessionInputs &In;
  std::vector<CellT> Table;
  std::vector<CellT> Slices;
  MutexT Locks[Stripes];
  CellT Counters[Stripes];
};

using NativeProgram = Program<std::mutex, NativeCell, std::thread>;
using RuntimeProgram = Program<rt::Mutex, rt::Shared<int>, rt::Thread>;

/// Seconds of native or pass-through execution, fork to last join.
template <typename ProgramT>
double timeUninstrumented(const SessionInputs &In) {
  ProgramT Prog(In);
  Prog.prepare();
  uint64_t Start = nowNs();
  Prog.forkJoin();
  return secondsSince(Start);
}


bool sameWarnings(const std::vector<RaceWarning> &A,
                  const std::vector<RaceWarning> &B) {
  auto Key = [](const RaceWarning &W) {
    return std::make_tuple(W.Var, W.OpIndex, W.CurrentThread,
                           unsigned(W.CurrentKind), W.PriorThread,
                           unsigned(W.PriorKind));
  };
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (Key(A[I]) != Key(B[I]))
      return false;
  return true;
}

/// Runs one session, checking its output into \p Result.
SessionOutcome runSession(const SessionConfig &Config, SpanRecorder &Spans,
                          RunResult &Result) {
  const SessionInputs &In = *Config.In;
  SessionOutcome Out;
  Out.Emitted = In.events();
  rt::OnlineOptions Options; // the defaults under test
  Result.check(In.producerEvents() < Options.RingCapacity &&
                   In.mainEvents() < Options.RingCapacity,
               "a thread of the session emits more events than its ring "
               "holds, so it may park and the session degrade");

  std::unique_ptr<Tool> Detector;
  if (Config.Fast)
    Detector = std::make_unique<FastTrack>();
  else
    Detector = std::make_unique<EmptyTool>();
  if (!Config.Capture) {
    Options.KeepCapture = false;
    Options.ValidateCapture = false;
  }

  Spans.newGroup();
  SpanRecorder::Scope Session(Spans, "session", "bench");
  RuntimeProgram Prog(In);
  uint64_t Start = nowNs();
  std::unique_ptr<rt::Engine> Eng;
  {
    SpanRecorder::Scope Construct(Spans, "engine.construct", "runtime");
    Eng = std::make_unique<rt::Engine>(*Detector, Options);
  }
  Out.SetupS = secondsSince(Start);

  Prog.prepare();
  // finish() joins the supervisor, which sleeps in whole ticks, so a
  // session's end is rounded up to the supervisor's next tick. Starting
  // the application at a random offset into the tick keeps that rounding
  // from locking onto the session length: the median then carries the
  // average wait (half a tick) whatever the per-event cost.
  std::this_thread::sleep_for(std::chrono::microseconds(Config.OffsetUs));
  uint64_t ForkNs = nowNs();
  {
    SpanRecorder::Scope App(Spans, "application", "runtime");
    Prog.forkJoin();
  }
  VarId RaceA = Eng->internId(rt::EntityKind::Var, &Prog.RaceA);
  VarId RaceB = Eng->internId(rt::EntityKind::Var, &Prog.RaceB);
  uint64_t FinishStart = nowNs();
  rt::OnlineReport Report;
  {
    SpanRecorder::Scope Finish(Spans, "finish", "runtime");
    Report = Eng->finish();
  }
  uint64_t End = nowNs();
  Out.FinishS = double(End - FinishStart) * 1e-9;
  Out.NsPerEvent = double(End - ForkNs) / double(Out.Emitted);
  Eng.reset();

  Out.ParkEpisodes = Report.ParkEpisodes;
  Out.MaxBacklog = Report.MaxBacklog;
  Out.Degradations = Report.Degradations;
  Out.AccessesShed = Report.AccessesShed;
  Out.Clocks = Report.Clocks;
  uint64_t Lost = Report.AccessesShed + Report.DroppedOverload +
                  Report.DroppedPostHalt + Report.UntrackedEvents;
  // Coarsening drops nothing but analyses the rest of the session at page
  // granularity; without a per-event boundary, count the whole session.
  Out.NotFull = Report.Degradations != 0 || Report.Halted ? Out.Emitted
                                                          : Lost;
  Result.Attempted += Out.Emitted;
  Result.Failed += Out.NotFull;

  const std::string Tag = std::string(Config.Fast ? "FastTrack" : "EMPTY") +
                          " session (seed-derived inputs, " +
                          std::to_string(Out.Emitted) + " events)";
  Result.check(Report.EventsCaptured + Lost == Out.Emitted,
               Tag + ": emitted != captured + shed + dropped + untracked");
  if (Out.NotFull != 0)
    return Out; // fidelity loss is reported through ops_ok_frac
  for (const Diagnostic &D : Report.Diags)
    Result.check(D.Sev != Severity::Error,
                 Tag + ": diagnostic: " + D.Message);
  if (Config.Capture)
    Result.check(Report.Captured.size() == Out.Emitted,
                 Tag + ": capture length differs from events emitted");
  if (!Config.Fast)
    return Out;

  auto &FT = static_cast<FastTrack &>(*Detector);
  Result.check(racySet(FT) == std::set<VarId>{RaceA, RaceB},
               Tag + ": online racy set is not the two racy variables");
  Out.Rules = FT.ruleStats();
  Out.ShadowBytes = FT.shadowBytes();
  Out.ResidentPages = FT.residentShadowPages();
  if (Config.Capture) {
    FastTrack Replayed;
    replay(Report.Captured, Replayed);
    Result.check(sameWarnings(Replayed.warnings(), FT.warnings()),
                 Tag + ": capture replay does not reproduce the warnings");
    if (Config.KeepCapture)
      Out.Captured = std::move(Report.Captured);
  }
  return Out;
}

/// Times Engine constructions at default options back to back, each
/// followed by finish(), so all but the first of the burst find the
/// previous engine's memory in cache. Constructing inside a session
/// follows the session's own work and costs 2-3x as much, mostly in cache
/// misses, which made its median swing by half from one set of runs to
/// the next on a shared host; the warm cost moves with the work the
/// constructor does.
void timeConstructions(std::vector<double> &Setup) {
  constexpr unsigned Burst = 8;
  for (unsigned I = 0; I <= Burst; ++I) {
    FastTrack Detector;
    uint64_t Start = nowNs();
    rt::Engine Eng(Detector, rt::OnlineOptions());
    if (I != 0)
      Setup.push_back(secondsSince(Start));
    Eng.finish();
  }
}

} // namespace

void measureRuntimeLadder(uint64_t Seed, bool SyncHeavy, double Budget,
                          SpanRecorder &Spans, RunResult &Result,
                          LadderOutcome &Out) {
  const SessionInputs In = makeSessionInputs(Seed, SyncHeavy, 1);
  const double Events = double(In.events());
  std::vector<double> Native, Shim, Pipeline, Capture, Rules, Full,
      FullUntraced, EmptyFull, Finish;
  CpuRotation Cpus;
  SessionOffsets Offsets(Seed);
  uint64_t Start = nowNs();
  bool SpansWereOn = Spans.Enabled;
  // Interleave the stages round by round, each round on one CPU, so each
  // difference pairs samples taken on one CPU in one noise window.
  for (unsigned Round = 0; Round < 3 || secondsSince(Start) < Budget;
       ++Round) {
    Cpus.next();
    double NativeNs = 1e9 * timeUninstrumented<NativeProgram>(In) / Events;
    double PassNs = 1e9 * timeUninstrumented<RuntimeProgram>(In) / Events;
    SessionConfig Cfg;
    Cfg.In = &In;
    Cfg.Fast = false;
    Cfg.Capture = false;
    Cfg.OffsetUs = Offsets.next();
    double NoCapNs = runSession(Cfg, Spans, Result).NsPerEvent;
    Cfg.Capture = true;
    Cfg.OffsetUs = Offsets.next();
    double EmptyNs = runSession(Cfg, Spans, Result).NsPerEvent;
    Cfg.Fast = true;
    Cfg.OffsetUs = Offsets.next();
    SessionOutcome FT = runSession(Cfg, Spans, Result);
    Spans.Enabled = false;
    Cfg.OffsetUs = Offsets.next();
    double FTUntracedNs = runSession(Cfg, Spans, Result).NsPerEvent;
    Spans.Enabled = SpansWereOn;

    Native.push_back(NativeNs);
    Shim.push_back(PassNs - NativeNs);
    Pipeline.push_back(NoCapNs - PassNs);
    Capture.push_back(EmptyNs - NoCapNs);
    Rules.push_back(FT.NsPerEvent - EmptyNs);
    Full.push_back(FT.NsPerEvent);
    FullUntraced.push_back(FTUntracedNs);
    EmptyFull.push_back(EmptyNs);
    Finish.push_back(FT.FinishS);
    Out.ParkEpisodes = FT.ParkEpisodes;
    Out.MaxBacklog = FT.MaxBacklog;
    Out.Degradations = FT.Degradations;
    Out.AccessesShed = FT.AccessesShed;
  }
  Out.NativeNs = median(Native);
  Out.ShimNs = median(Shim);
  Out.PipelineNs = median(Pipeline);
  Out.CaptureNs = median(Capture);
  Out.RulesNs = median(Rules);
  Out.FastTrackNs = median(Full);
  Out.EmptyNs = median(EmptyFull);
  Out.FinishS = median(Finish);
  Out.TracingOverheadFrac = median(Full) / median(FullUntraced) - 1;
  double Sum =
      Out.NativeNs + Out.ShimNs + Out.PipelineNs + Out.CaptureNs + Out.RulesNs;
  auto [Q1, Q3] = quartiles(Full);
  Out.ResidualFrac = (Sum - Out.FastTrackNs) / Out.FastTrackNs;
  Result.note(fmt("ladder: %.0f rounds; native %.1f + shim %.1f",
                  double(Native.size()), Out.NativeNs, Out.ShimNs) +
              fmt(" + pipeline %.1f + capture %.1f + rules %.1f",
                  Out.PipelineNs, Out.CaptureNs, Out.RulesNs) +
              fmt(" = %.1f ns/event vs FastTrack session %.1f (IQR %.1f)",
                  Sum, Out.FastTrackNs, Q3 - Q1));
  // The stage costs are medians of paired differences, so their sum need
  // not telescope to the FastTrack median; it must land within the
  // FastTrack samples' own spread.
  Result.check(std::fabs(Sum - Out.FastTrackNs) <= Q3 - Q1,
               fmt("ladder does not add up: stages sum to %.1f ns/event, "
                   "FastTrack session %.1f, IQR %.1f",
                   Sum, Out.FastTrackNs, Q3 - Q1));

  // Capture growth: the capture's cost per event (EMPTY minus EMPTY with
  // capture off) at 4x the session length (4x the rounds) over the same
  // at 1x.
  const SessionInputs Long = makeSessionInputs(Seed, SyncHeavy, 4);
  std::vector<double> LongCapture;
  for (unsigned I = 0; I != 15; ++I) {
    Cpus.next();
    SessionConfig Cfg;
    Cfg.In = &Long;
    Cfg.Fast = false;
    Cfg.Capture = false;
    Cfg.OffsetUs = Offsets.next();
    double NoCapNs = runSession(Cfg, Spans, Result).NsPerEvent;
    Cfg.Capture = true;
    Cfg.OffsetUs = Offsets.next();
    LongCapture.push_back(runSession(Cfg, Spans, Result).NsPerEvent -
                          NoCapNs);
  }
  Out.CaptureGrowthX = median(LongCapture) / Out.CaptureNs;
  Result.note(fmt("capture growth: %.1f ns/event at 1x, %.1f at 4x session "
                  "length (%.2fx)",
                  Out.CaptureNs, median(LongCapture), Out.CaptureGrowthX));

  // The same FastTrack session with the process's whole CPU mask, so the
  // cross-core hand-off shows beside the one-CPU number.
  std::vector<double> UnpinnedNs;
  Cpus.unpin();
  for (unsigned I = 0; I != 10; ++I) {
    SessionConfig Cfg;
    Cfg.In = &In;
    Cfg.OffsetUs = Offsets.next();
    UnpinnedNs.push_back(runSession(Cfg, Spans, Result).NsPerEvent);
  }
  Out.UnpinnedNs = median(UnpinnedNs);
  Result.note(fmt("FastTrack session: %.1f ns/event on one CPU, %.1f on "
                  "the whole CPU mask",
                  Out.FastTrackNs, Out.UnpinnedNs));
}

void reportRuntimeLadder(const LadderOutcome &L, RunResult &Result) {
  Result.metric("runtime.native_ns_per_op", L.NativeNs, "ns");
  Result.metric("runtime.shim_ns_per_event", L.ShimNs, "ns");
  Result.metric("runtime.pipeline_ns_per_event", L.PipelineNs, "ns");
  Result.metric("runtime.finish_s", L.FinishS, "s");
  Result.metric("runtime.park_episodes", double(L.ParkEpisodes), "count");
  Result.metric("runtime.max_backlog", double(L.MaxBacklog), "count");
  Result.metric("runtime.degradations", double(L.Degradations), "count");
  Result.metric("runtime.accesses_shed", double(L.AccessesShed), "count");
  Result.metric("runtime.pinned1_ns_per_event", L.FastTrackNs, "ns");
  Result.metric("runtime.unpinned_ns_per_event", L.UnpinnedNs, "ns");
  Result.metric("bench.ladder_residual_frac", L.ResidualFrac, "frac");
}

RunResult runOnline(const RunOptions &Options, SpanRecorder &Spans,
                    bool SyncHeavy) {
  RunResult Result;
  const SessionInputs In = makeSessionInputs(Options.Seed, SyncHeavy, 1);
  Result.note("session: " + std::to_string(In.events()) + " events in " +
              std::to_string(In.Rounds) +
              " rounds of 2 producers, forked and joined by main");

  if (!Options.Traced) {
    CpuRotation Cpus;
    std::vector<double> Setup, SessionSetup, Rate;
    SessionOffsets Offsets(Options.Seed);
    uint64_t Start = nowNs(), NextBurst = Start;
    for (unsigned I = 0; I < 5 || secondsSince(Start) < Options.Seconds;
         ++I) {
      Cpus.next();
      if (nowNs() >= NextBurst) {
        timeConstructions(Setup);
        NextBurst = nowNs() + 500000000ull;
      }
      SessionConfig Cfg;
      Cfg.In = &In;
      Cfg.OffsetUs = Offsets.next();
      SessionOutcome S = runSession(Cfg, Spans, Result);
      SessionSetup.push_back(S.SetupS);
      Rate.push_back(1e9 / S.NsPerEvent);
    }
    Result.note(fmt("%.0f sessions; events_per_s IQR/median %.4f; %.0f "
                    "constructions",
                    double(Rate.size()), iqrFrac(Rate), double(Setup.size())) +
                fmt("; setup_s IQR/median %.4f; construction inside a "
                    "session (cold) %.4g s",
                    iqrFrac(Setup), median(SessionSetup)));
    Result.metric("setup_s", median(Setup), "s");
    Result.metric("events_per_s", median(Rate), "1/s");
    Result.metric("peak_rss_mb", peakRssMb(), "MB");
    Result.metric("ops_ok_frac",
                  1.0 - double(Result.Failed) / double(Result.Attempted),
                  "frac");
    return Result;
  }

  LadderOutcome L;
  measureRuntimeLadder(Options.Seed, SyncHeavy, 0.8 * Options.Seconds, Spans,
                       Result, L);

  // Offline layers over one FastTrack session's capture: the online
  // workload's own trace through the user path.
  SessionOutcome S;
  {
    CpuRotation Cpus;
    SessionConfig Cfg;
    Cfg.In = &In;
    Cfg.KeepCapture = true;
    for (unsigned Try = 0; Try != 5 && S.Captured.size() == 0; ++Try) {
      Cpus.next();
      S = runSession(Cfg, Spans, Result);
    }
  }
  Result.check(S.Captured.size() != 0,
               "no full-fidelity FastTrack session in 5 tries");
  // One capture is a few milliseconds of work: take the median of 9.
  std::vector<TraceLayers> Runs;
  for (unsigned I = 0; I != 9; ++I)
    Runs.push_back(measureTraceLayers(S.Captured, Spans, Result));
  auto Median = [&](double TraceLayers::*Field) {
    std::vector<double> V;
    for (const TraceLayers &R : Runs)
      V.push_back(R.*Field);
    return median(V);
  };
  TraceLayers C;
  for (double TraceLayers::*F :
       {&TraceLayers::ParseNs, &TraceLayers::TextBytes,
        &TraceLayers::ValidateNs, &TraceLayers::EmptyNs,
        &TraceLayers::ParallelNs, &TraceLayers::DjitNs})
    C.*F = Median(F);

  Result.metric("trace.parse_ns_per_event", C.ParseNs, "ns");
  Result.metric("trace.text_bytes_per_event", C.TextBytes, "B");
  Result.metric("trace.validate_ns_per_event", C.ValidateNs, "ns");
  Result.metric("trace.capture_ns_per_event", L.CaptureNs, "ns");
  Result.metric("trace.capture_growth_x", L.CaptureGrowthX, "x");
  Result.metric("framework.replay_empty_ns_per_event", C.EmptyNs, "ns");
  Result.metric("framework.parallel_replay_ns_per_event", C.ParallelNs, "ns");
  Result.metric("core.fasttrack_ns_per_event", L.FastTrackNs, "ns");
  Result.metric("core.rules_ns_per_event", L.RulesNs, "ns");
  Result.metric("core.ft_slowdown_x", L.FastTrackNs / L.EmptyNs, "x");
  reportRuleStats(S.Rules, Result);
  Result.metric("clock.vc_ops", double(S.Clocks.totalOps()), "count");
  Result.metric("clock.vc_allocs", double(S.Clocks.Allocations), "count");
  Result.metric("shadow.bytes", double(S.ShadowBytes), "B");
  Result.metric("shadow.resident_pages", double(S.ResidentPages), "count");
  Result.metric("detectors.djitplus_ns_per_event", C.DjitNs, "ns");
  reportRuntimeLadder(L, Result);
  Result.metric("bench.tracing_overhead_frac", L.TracingOverheadFrac, "frac");
  return Result;
}

} // namespace ftbench
