//===--- RuntimeTest.cpp - the online in-process detection runtime --------===//
//
// Covers the pieces bottom-up (ring, interner) and then the contracts the
// subsystem exists for: ticket order is a legal linearization (captures
// pass TraceValidator), online warnings equal an offline replay of the
// flight-recorder capture exactly, capture files round-trip through
// TraceIO, and backpressure/capacity limits degrade without deadlock.
//
// The CI TSan job runs this binary: real producer threads against the
// real sequencer certify the runtime's own concurrency.
//
//===----------------------------------------------------------------------===//

#include "core/FastTrack.h"
#include "detectors/Eraser.h"
#include "framework/Replay.h"
#include "runtime/FaultPlan.h"
#include "runtime/Instrument.h"
#include "support/MemoryTracker.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "trace/TraceValidator.h"

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

using namespace ft;
namespace rt = ft::runtime;

namespace {

void expectSameWarnings(const std::vector<RaceWarning> &Online,
                        const std::vector<RaceWarning> &Offline) {
  ASSERT_EQ(Online.size(), Offline.size());
  for (size_t I = 0; I != Online.size(); ++I) {
    EXPECT_EQ(Online[I].Var, Offline[I].Var) << "warning " << I;
    EXPECT_EQ(Online[I].OpIndex, Offline[I].OpIndex) << "warning " << I;
    EXPECT_EQ(Online[I].CurrentThread, Offline[I].CurrentThread);
    EXPECT_EQ(Online[I].CurrentKind, Offline[I].CurrentKind);
    EXPECT_EQ(Online[I].PriorThread, Offline[I].PriorThread);
    EXPECT_EQ(Online[I].PriorKind, Offline[I].PriorKind);
    EXPECT_EQ(Online[I].Detail, Offline[I].Detail);
  }
}

/// Runs \p Body under an online FastTrack session and asserts the full
/// online/offline equivalence contract: the capture is feasible, and an
/// offline replay of it reproduces the online warnings exactly.
template <typename Body>
rt::OnlineReport checkedSession(FastTrack &Detector, Body &&Run,
                                rt::OnlineOptions Options = {}) {
  // These are exact-equivalence contract tests: every emitted event must
  // be delivered. Pin off the overload ladder and the supervisor's
  // load-shedding so a slow CI machine (TSan especially) cannot shed
  // accesses mid-test. Resilience behavior has its own suite
  // (OnlineResilienceTest.cpp).
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Engine Engine(Detector, std::move(Options));
  Run();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  for (const Diagnostic &D : Report.Diags)
    ADD_FAILURE() << toString(D);
  EXPECT_TRUE(isFeasible(Report.Captured));

  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
  return Report;
}

} // namespace

//===----------------------------------------------------------------------===//
// EventRing
//===----------------------------------------------------------------------===//

TEST(EventRing, FifoAndWraparound) {
  rt::EventRing Ring(4);
  EXPECT_EQ(Ring.capacity(), 4u);
  for (uint64_t Round = 0; Round != 3; ++Round) {
    for (uint64_t I = 0; I != 4; ++I) {
      ASSERT_TRUE(Ring.hasSpace());
      Ring.push({Round * 4 + I, OpKind::Read, static_cast<uint32_t>(I)});
    }
    EXPECT_FALSE(Ring.hasSpace());
    for (uint64_t I = 0; I != 4; ++I) {
      const rt::OnlineEvent *E = Ring.peek();
      ASSERT_NE(E, nullptr);
      EXPECT_EQ(E->Seq, Round * 4 + I);
      Ring.pop();
    }
    EXPECT_EQ(Ring.peek(), nullptr);
    EXPECT_TRUE(Ring.empty());
  }
}

TEST(EventRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(rt::EventRing(3).capacity(), 4u);
  EXPECT_EQ(rt::EventRing(5).capacity(), 8u);
  EXPECT_EQ(rt::EventRing(1024).capacity(), 1024u);
}

TEST(EventRing, PopRunDrainsConsecutiveTickets) {
  rt::EventRing Ring(8);
  for (uint64_t I = 0; I != 5; ++I)
    Ring.push({I, OpKind::Read, static_cast<uint32_t>(I)});
  rt::OnlineEvent Out[8];
  uint64_t Next = 0;
  size_t N = Ring.popRunInto(Next, Out, 8);
  ASSERT_EQ(N, 5u);
  EXPECT_EQ(Next, 5u);
  for (uint64_t I = 0; I != 5; ++I) {
    EXPECT_EQ(Out[I].Seq, I);
    EXPECT_EQ(Out[I].Target, I);
  }
  EXPECT_TRUE(Ring.empty());
  EXPECT_EQ(Ring.popRunInto(Next, Out, 8), 0u);
}

TEST(EventRing, PopRunRespectsMaxAndResumes) {
  rt::EventRing Ring(8);
  for (uint64_t I = 0; I != 6; ++I)
    Ring.push({I, OpKind::Write, 0});
  rt::OnlineEvent Out[4];
  uint64_t Next = 0;
  EXPECT_EQ(Ring.popRunInto(Next, Out, 4), 4u);
  EXPECT_EQ(Next, 4u);
  EXPECT_EQ(Ring.popRunInto(Next, Out, 4), 2u);
  EXPECT_EQ(Next, 6u);
  EXPECT_TRUE(Ring.empty());
}

TEST(EventRing, PopRunStopsAtOutOfRunTicket) {
  // Ticket 7 belongs to another thread's ring; this ring resumes at 8.
  rt::EventRing Ring(8);
  Ring.push({5, OpKind::Read, 0});
  Ring.push({6, OpKind::Read, 0});
  Ring.push({8, OpKind::Read, 0});
  rt::OnlineEvent Out[8];
  uint64_t Next = 5;
  EXPECT_EQ(Ring.popRunInto(Next, Out, 8), 2u);
  EXPECT_EQ(Next, 7u);
  ASSERT_NE(Ring.peek(), nullptr);
  EXPECT_EQ(Ring.peek()->Seq, 8u) << "out-of-run event must stay queued";
  Next = 8;
  EXPECT_EQ(Ring.popRunInto(Next, Out, 8), 1u);
  EXPECT_TRUE(Ring.empty());
}

TEST(EventRing, PopRunFreesSpaceForTheProducer) {
  rt::EventRing Ring(4);
  rt::OnlineEvent Out[4];
  uint64_t Next = 0;
  for (uint64_t I = 0; I != 4; ++I)
    Ring.push({I, OpKind::Read, 0});
  EXPECT_FALSE(Ring.hasSpace());
  EXPECT_EQ(Ring.popRunInto(Next, Out, 4), 4u);
  EXPECT_TRUE(Ring.hasSpace()) << "batch pop must release all slots";
  for (uint64_t I = 4; I != 8; ++I) {
    ASSERT_TRUE(Ring.hasSpace());
    Ring.push({I, OpKind::Read, 0});
  }
  EXPECT_EQ(Ring.popRunInto(Next, Out, 4), 4u);
  EXPECT_EQ(Next, 8u);
}

//===----------------------------------------------------------------------===//
// EntityInterner
//===----------------------------------------------------------------------===//

TEST(EntityInterner, DenseStableIdsPerKind) {
  rt::EntityInterner Interner;
  int A = 0, B = 0, C = 0; // only their addresses are interned
  EXPECT_EQ(Interner.intern(rt::EntityKind::Var, &A), 0u);
  EXPECT_EQ(Interner.intern(rt::EntityKind::Var, &B), 1u);
  EXPECT_EQ(Interner.intern(rt::EntityKind::Var, &A), 0u); // stable
  // Kinds are independent id spaces: the same address can be a var id
  // and a lock id.
  EXPECT_EQ(Interner.intern(rt::EntityKind::Lock, &A), 0u);
  EXPECT_EQ(Interner.intern(rt::EntityKind::Volatile, &C), 0u);
  EXPECT_EQ(Interner.numVars(), 2u);
  EXPECT_EQ(Interner.numLocks(), 1u);
  EXPECT_EQ(Interner.numVolatiles(), 1u);
  EXPECT_EQ(Interner.allocateThreadId(), 0u);
  EXPECT_EQ(Interner.allocateThreadId(), 1u);
}

//===----------------------------------------------------------------------===//
// Engine: capture shape and linearization
//===----------------------------------------------------------------------===//

TEST(OnlineEngine, SingleThreadedCaptureIsTheProgramOrder) {
  FastTrack Detector;
  rt::Shared<int> X;
  rt::Mutex M;
  rt::Engine Engine(Detector);
  FT_WRITE(X, 1);
  M.lock();
  (void)FT_READ(X);
  M.unlock();
  rt::OnlineReport Report = Engine.finish();

  Trace Expected = TraceBuilder().wr(0, 0).acq(0, 0).rd(0, 0).rel(0, 0).take();
  EXPECT_EQ(serializeTrace(Report.Captured), serializeTrace(Expected));
  EXPECT_EQ(Report.EventsCaptured, 4u);
  EXPECT_EQ(Report.EventsDispatched, 4u);
  EXPECT_EQ(Report.NumWarnings, 0u);
}

TEST(OnlineEngine, ForkAndJoinBracketChildEvents) {
  FastTrack Detector;
  rt::Shared<int> X;
  rt::Engine Engine(Detector);
  FT_WRITE(X, 1);
  rt::Thread Child([&X] { FT_WRITE(X, 2); });
  Child.join();
  (void)FT_READ(X);
  rt::OnlineReport Report = Engine.finish();

  // fork-join ordering makes this race-free, and the capture must spell
  // the bracketing out exactly.
  Trace Expected =
      TraceBuilder().wr(0, 0).fork(0, 1).wr(1, 0).join(0, 1).rd(0, 0).take();
  EXPECT_EQ(serializeTrace(Report.Captured), serializeTrace(Expected));
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_TRUE(isFeasible(Report.Captured));
}

TEST(OnlineEngine, DetectsARaceOnlineAndReportsItImmediately) {
  FastTrack Detector;
  rt::Shared<int> X;
  std::vector<RaceWarning> Sunk;
  rt::OnlineOptions Options;
  Options.OnWarning = [&Sunk](const RaceWarning &W) { Sunk.push_back(W); };

  rt::Engine Engine(Detector, Options);
  FT_WRITE(X, 1);
  rt::Thread A([&X] { FT_WRITE(X, 2); });
  rt::Thread B([&X] { (void)FT_READ(X); });
  A.join();
  B.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.NumWarnings, 1u); // dedup: one warning for x0
  ASSERT_EQ(Sunk.size(), 1u);
  EXPECT_EQ(Sunk[0].Var, 0u);
  expectSameWarnings(Detector.warnings(), Sunk);
}

TEST(OnlineEngine, DowngradedSharedSkipsEventsButCountsThem) {
  // The native elision annotation: a downgraded Shared<T> performs its
  // accesses without emitting, and the session report says how many.
  FastTrack Detector;
  rt::Shared<int> Local;
  rt::Shared<int> Checked;
  Local.downgrade();
  EXPECT_FALSE(Local.checked());

  rt::Engine Engine(Detector);
  FT_WRITE(Local, 1);
  FT_WRITE(Checked, 2);
  rt::Thread Child([&Local] {
    FT_WRITE(Local, 3); // would be a capture-visible op if checked
    (void)FT_READ(Local);
  });
  Child.join();
  (void)FT_READ(Checked);
  rt::OnlineReport Report = Engine.finish();

  // Only Checked's accesses (plus fork/join) reach the stream.
  Trace Expected =
      TraceBuilder().wr(0, 0).fork(0, 1).join(0, 1).rd(0, 0).take();
  EXPECT_EQ(serializeTrace(Report.Captured), serializeTrace(Expected));
  EXPECT_EQ(Report.EventsElided, 3u);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_EQ(Local.read(), 3);
}

TEST(OnlineEngine, UpgradeRestoresEmission) {
  FastTrack Detector;
  rt::Shared<int> X;
  X.downgrade();
  X.upgrade();

  rt::Engine Engine(Detector);
  FT_WRITE(X, 1);
  rt::OnlineReport Report = Engine.finish();
  EXPECT_EQ(Report.EventsCaptured, 1u);
  EXPECT_EQ(Report.EventsElided, 0u);
}

TEST(OnlineEngine, UncheckedIsAPureUninstrumentedPassThrough) {
  FastTrack Detector;
  rt::Unchecked<int> Scratch(5);
  rt::Engine Engine(Detector);
  Scratch.write(Scratch.read() + 1);
  rt::Thread Child([&Scratch] { (void)Scratch.read(); });
  Child.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Scratch.read(), 6);
  // Nothing emitted, nothing counted: Unchecked is invisible to the
  // session (unlike downgrade(), which is audited via EventsElided).
  Trace Expected = TraceBuilder().fork(0, 1).join(0, 1).take();
  EXPECT_EQ(serializeTrace(Report.Captured), serializeTrace(Expected));
  EXPECT_EQ(Report.EventsElided, 0u);
}

//===----------------------------------------------------------------------===//
// Online/offline equivalence on the ported example programs
//===----------------------------------------------------------------------===//

namespace {

/// The bounded-buffer port (examples/native_bounded_buffer.cpp), small.
struct BoundedBuffer {
  rt::Mutex M;
  rt::CondVar CV;
  rt::Shared<int> Slot;
  rt::Shared<int> Full;
  rt::Shared<int> Consumed;

  void producer(int Items) {
    for (int I = 1; I <= Items; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      CV.wait(M, [this] { return FT_READ(Full) == 0; });
      FT_WRITE(Slot, I * 10);
      FT_WRITE(Full, 1);
      CV.notifyAll();
    }
  }
  void consumer(int Items) {
    for (int I = 0; I < Items; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      CV.wait(M, [this] { return FT_READ(Full) == 1; });
      FT_WRITE(Consumed, FT_READ(Consumed) + FT_READ(Slot));
      FT_WRITE(Full, 0);
      CV.notifyAll();
    }
  }
};

/// The broken double-checked-locking port (racy on every schedule).
struct BrokenLazyInit {
  rt::Mutex InitLock;
  rt::Shared<int> Singleton;
  rt::Shared<int> Initialized;

  int getInstance() {
    if (FT_READ(Initialized) == 0) {
      std::lock_guard<rt::Mutex> Guard(InitLock);
      if (FT_READ(Initialized) == 0) {
        FT_WRITE(Singleton, 42);
        FT_WRITE(Initialized, 1);
      }
    }
    return FT_READ(Singleton);
  }
};

} // namespace

TEST(OnlineEquivalence, BoundedBufferIsRaceFreeOnEverySchedule) {
  for (int Round = 0; Round != 5; ++Round) {
    FastTrack Detector;
    BoundedBuffer Buffer;
    rt::OnlineReport Report = checkedSession(Detector, [&Buffer] {
      rt::Thread P([&Buffer] { Buffer.producer(5); });
      rt::Thread C([&Buffer] { Buffer.consumer(5); });
      P.join();
      C.join();
    });
    EXPECT_EQ(Report.NumWarnings, 0u) << "round " << Round;
    EXPECT_EQ(Buffer.Consumed.read(), 150);
  }
}

TEST(OnlineEquivalence, HoldsForEverySequencerBatchSize) {
  // Batch edges: 1 degenerates to the unbatched drain, 2 and 3 force
  // mid-run batch boundaries, 1024 exceeds every ring's content. The
  // merged order (and so the warnings) must be identical throughout.
  for (size_t Batch : {size_t(1), size_t(2), size_t(3), size_t(1024)}) {
    FastTrack Detector;
    BoundedBuffer Buffer;
    rt::OnlineOptions Options;
    Options.SequencerBatch = Batch;
    rt::OnlineReport Report = checkedSession(
        Detector,
        [&Buffer] {
          rt::Thread P([&Buffer] { Buffer.producer(5); });
          rt::Thread C([&Buffer] { Buffer.consumer(5); });
          P.join();
          C.join();
        },
        std::move(Options));
    EXPECT_EQ(Report.NumWarnings, 0u) << "batch " << Batch;
    EXPECT_EQ(Buffer.Consumed.read(), 150);
  }
}

TEST(OnlineEquivalence, DoubleCheckedLockingIsRacyOnEverySchedule) {
  for (int Round = 0; Round != 5; ++Round) {
    FastTrack Detector;
    BrokenLazyInit Lazy;
    rt::OnlineReport Report = checkedSession(Detector, [&Lazy] {
      rt::Thread A([&Lazy] { (void)Lazy.getInstance(); });
      rt::Thread B([&Lazy] { (void)Lazy.getInstance(); });
      A.join();
      B.join();
    });
    // Whatever the schedule, the unprotected flag read races with the
    // initializing write (see the example for the argument).
    EXPECT_GT(Report.NumWarnings, 0u) << "round " << Round;
  }
}

TEST(OnlineEquivalence, VolatileFlagFixesDoubleCheckedLocking) {
  FastTrack Detector;
  rt::Mutex InitLock;
  rt::Shared<int> Singleton;
  rt::Volatile<int> Initialized;
  auto GetInstance = [&] {
    if (Initialized.read() == 0) {
      std::lock_guard<rt::Mutex> Guard(InitLock);
      if (Initialized.read() == 0) {
        FT_WRITE(Singleton, 42);
        Initialized.write(1);
      }
    }
    return FT_READ(Singleton);
  };
  rt::OnlineReport Report = checkedSession(Detector, [&] {
    rt::Thread A([&] { (void)GetInstance(); });
    rt::Thread B([&] { (void)GetInstance(); });
    A.join();
    B.join();
  });
  EXPECT_EQ(Report.NumWarnings, 0u);
}

//===----------------------------------------------------------------------===//
// Flight recorder: capture → validate → save → load → replay round trip
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, CaptureRoundTripsThroughDiskAndReplay) {
  const char *Path = "runtime_capture_roundtrip.trc";
  FastTrack Detector;
  rt::Shared<int> X, Y;
  rt::Mutex M;
  rt::OnlineOptions Options;
  Options.CapturePath = Path;

  rt::Engine Engine(Detector, Options);
  FT_WRITE(Y, 5);
  rt::Thread A([&] {
    M.lock();
    FT_WRITE(X, 1);
    M.unlock();
    (void)FT_READ(Y); // race with main's later write
  });
  M.lock();
  FT_WRITE(X, 2);
  M.unlock();
  FT_WRITE(Y, 6);
  A.join();
  rt::OnlineReport Report = Engine.finish();
  ASSERT_TRUE(Report.Diags.empty());

  // 1. The in-memory capture is feasible (already asserted by the engine
  //    when ValidateCapture is on; assert independently here).
  EXPECT_TRUE(isFeasible(Report.Captured));

  // 2. The .trc file parses back to the identical trace.
  Trace Loaded;
  ParseReport Parse = loadTraceFile(Path, Loaded);
  ASSERT_TRUE(Parse.ok());
  EXPECT_EQ(serializeTrace(Loaded), serializeTrace(Report.Captured));
  EXPECT_TRUE(isFeasible(Loaded));

  // 3. Replaying the loaded file reproduces the online warnings exactly.
  FastTrack Offline;
  replay(Loaded, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
  EXPECT_EQ(Detector.warnings().size(), 1u); // the y race

  std::remove(Path);
}

TEST(FlightRecorder, KeepCaptureOffStillWritesTheFile) {
  const char *Path = "runtime_capture_fileonly.trc";
  FastTrack Detector;
  rt::Shared<int> X;
  rt::OnlineOptions Options;
  Options.CapturePath = Path;
  Options.KeepCapture = false;

  rt::Engine Engine(Detector, Options);
  FT_WRITE(X, 1);
  rt::OnlineReport Report = Engine.finish();
  EXPECT_TRUE(Report.Captured.empty()); // not kept in memory

  Trace Loaded;
  ASSERT_TRUE(loadTraceFile(Path, Loaded).ok());
  EXPECT_EQ(Loaded.size(), 1u);
  std::remove(Path);
}

//===----------------------------------------------------------------------===//
// Backpressure, capacity, and degraded modes
//===----------------------------------------------------------------------===//

TEST(OnlineEngine, TinyRingsBackpressureWithoutDeadlockOrLoss) {
  // Rings of 4 events force constant producer parking; every event must
  // still arrive, in a feasible order.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.RingCapacity = 4;
  // "Or loss" is the point here: disable every shedding mechanism so the
  // count below is exact even when CI runs this at TSan speed.
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Mutex M;
  rt::Shared<int> X;
  constexpr int PerThread = 500;

  rt::Engine Engine(Detector, Options);
  auto Hammer = [&] {
    for (int I = 0; I != PerThread; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      FT_WRITE(X, I);
    }
  };
  rt::Thread A(Hammer);
  rt::Thread B(Hammer);
  A.join();
  B.join();
  rt::OnlineReport Report = Engine.finish();

  // 2 forks + 2 joins + 2 threads × 500 × (acq + wr + rel).
  EXPECT_EQ(Report.EventsCaptured, 4u + 2u * PerThread * 3u);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_TRUE(isFeasible(Report.Captured));
}

TEST(OnlineEngine, BackpressureParkUnparkIsCountedNotLost) {
  // Tiny rings plus an injected slow-consumer storm guarantee producers
  // park; generous supervisor deadlines guarantee nothing is shed. The
  // report must carry the MaxQueueDepth-style pressure stats while the
  // delivered stream stays complete. (The TSan CI job runs this: parking
  // and unparking across producer/sequencer threads is the racy part.)
  FastTrack Detector;
  rt::FaultPlan Faults;
  Faults.DelayFromTicket = 0;
  Faults.DelayToTicket = 50; // storm over the first 50 tickets only
  Faults.DelayPerDeliveryUs = 1000;
  rt::OnlineOptions Options;
  Options.RingCapacity = 4;
  Options.Faults = &Faults;
  Options.Degrade.Enabled = false;          // nothing may be shed...
  Options.Supervise.MaxParkMs = 60000;      // ...parked accesses wait
  Options.Supervise.StallDeadlineMs = 60000; // a slow merge is not a stall
  rt::Mutex M;
  rt::Shared<int> X;
  constexpr int PerThread = 100;

  rt::Engine Engine(Detector, Options);
  auto Hammer = [&] {
    for (int I = 0; I != PerThread; ++I) {
      std::lock_guard<rt::Mutex> Guard(M);
      FT_WRITE(X, I);
    }
  };
  rt::Thread A(Hammer);
  rt::Thread B(Hammer);
  A.join();
  B.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.EventsCaptured, 4u + 2u * PerThread * 3u);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.DroppedOverload, 0u);
  EXPECT_EQ(Report.DroppedPostHalt, 0u);
  EXPECT_EQ(Report.AccessesShed, 0u);
  EXPECT_EQ(Report.SequencerRestarts, 0u);
  // Pressure really happened, and the per-thread rows account for it.
  EXPECT_GT(Report.ParkEpisodes, 0u);
  EXPECT_GT(Report.MaxBacklog, 0u);
  uint64_t Parks = 0;
  for (const rt::ThreadDropStats &S : Report.PerThreadDrops)
    Parks += S.Parks;
  EXPECT_EQ(Parks, Report.ParkEpisodes);
  EXPECT_TRUE(isFeasible(Report.Captured));
}

TEST(OnlineEngine, CapacityBreachHaltsDetectionNotTheProgram) {
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.MaxVars = 2;
  // With the ladder on, an over-capacity variable coarsens instead of
  // halting (OnlineResilienceTest covers that); this test pins the
  // pre-ladder halt behavior.
  Options.Degrade.Enabled = false;
  std::vector<rt::Shared<int>> Vars(8);

  rt::Engine Engine(Detector, Options);
  for (rt::Shared<int> &V : Vars)
    FT_WRITE(V, 1); // third distinct variable breaches MaxVars
  rt::OnlineReport Report = Engine.finish();

  EXPECT_TRUE(Report.Halted);
  ASSERT_FALSE(Report.Diags.empty());
  EXPECT_EQ(Report.Diags[0].Code, StatusCode::ResourceExhausted);
  // The six writes emitted after the breach are not lost silently: each
  // is counted exactly once (at emit when the halt was already visible,
  // or discarded by the sequencer when it was ticketed first) and the
  // loss is flagged by a one-shot diagnostic.
  EXPECT_EQ(Report.DroppedPostHalt, 6u);
  bool DropDiag = false;
  for (const Diagnostic &D : Report.Diags)
    DropDiag |= D.Code == StatusCode::Cancelled &&
                D.Message.find("dropped after detection halted") !=
                    std::string::npos;
  EXPECT_TRUE(DropDiag);
  // The capture holds exactly the accepted prefix, still replayable.
  EXPECT_EQ(Report.Captured.size(), 2u);
  FastTrack Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
}

TEST(OnlineEngine, NoEngineMeansPassThrough) {
  ASSERT_EQ(rt::Engine::current(), nullptr);
  rt::Shared<int> X;
  rt::Mutex M;
  M.lock();
  FT_WRITE(X, 7);
  M.unlock();
  EXPECT_EQ(FT_READ(X), 7);
  rt::Thread T([&X] { FT_WRITE(X, 8); });
  T.join();
  EXPECT_EQ(FT_READ(X), 8);
}

TEST(OnlineEngine, ObjectsOutlivingASessionReInternCleanly) {
  // The same Shared/Mutex objects run under two engines; the id cache
  // must not leak ids across sessions (generation stamping).
  rt::Shared<int> X;
  rt::Mutex M;
  auto Run = [&] {
    FastTrack Detector;
    rt::Engine Engine(Detector);
    M.lock();
    FT_WRITE(X, 1);
    M.unlock();
    rt::OnlineReport Report = Engine.finish();
    EXPECT_EQ(Report.EventsCaptured, 3u);
    EXPECT_EQ(Report.Captured[1].Target, 0u); // dense again each session
    return Report.NumWarnings;
  };
  EXPECT_EQ(Run(), 0u);
  EXPECT_EQ(Run(), 0u);
}

TEST(OnlineEngine, ForeignThreadsAreAnalyzedButFlaggedByTheValidator) {
  // A plain std::thread (no fork edge) touching instrumented state: its
  // accesses are analyzed — conservatively unordered, so this races —
  // and the capture fails validation, as documented.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.ValidateCapture = false; // we validate by hand below
  rt::Shared<int> X;

  rt::Engine Engine(Detector, Options);
  FT_WRITE(X, 1);
  std::thread Foreign([&X] { FT_WRITE(X, 2); });
  Foreign.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.NumWarnings, 1u); // no fork edge: a (real) race
  EXPECT_FALSE(isFeasible(Report.Captured));
}

//===----------------------------------------------------------------------===//
// Stress: many threads, mixed primitives, online == offline every time
//===----------------------------------------------------------------------===//

TEST(OnlineEquivalence, StressManyThreadsMixedPrimitives) {
  constexpr unsigned NumThreads = 8;
  constexpr int Iters = 200;
  FastTrack Detector;
  rt::Mutex Locks[2];
  rt::Shared<int> Protected[2];
  rt::Shared<int> Racy;
  rt::Volatile<int> Flag;

  rt::OnlineReport Report = checkedSession(Detector, [&] {
    // Intern in a fixed order so var ids are deterministic, and seed the
    // fork edges that order these writes before every thread.
    FT_WRITE(Protected[0], 0);
    FT_WRITE(Protected[1], 0);
    FT_WRITE(Racy, 0);
    std::vector<rt::Thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        // First action, before any lock: two threads' initial writes can
        // never be happens-before ordered, so this races on EVERY
        // schedule (the only edge into a fresh thread is its fork).
        FT_WRITE(Racy, static_cast<int>(T));
        for (int I = 0; I != Iters; ++I) {
          unsigned Which = (T + I) % 2;
          Locks[Which].lock();
          FT_WRITE(Protected[Which], FT_READ(Protected[Which]) + 1);
          Locks[Which].unlock();
          if (I % 32 == 0) {
            Flag.write(I);
            (void)Flag.read();
          }
        }
      });
    for (rt::Thread &T : Threads)
      T.join();
  });

  EXPECT_EQ(Report.NumWarnings, 1u); // exactly the Racy variable
  EXPECT_EQ(Detector.warnings()[0].Var, 2u);
  EXPECT_GT(Report.EventsCaptured, NumThreads * Iters * 3ull);
}

//===----------------------------------------------------------------------===//
// Eraser online: any existing Tool runs unchanged
//===----------------------------------------------------------------------===//

TEST(OnlineEngine, EraserRunsOnlineUnchanged) {
  Eraser Detector;
  rt::Mutex M;
  rt::Shared<int> Guarded, Unguarded;

  rt::Engine Engine(Detector);
  rt::Thread A([&] {
    M.lock();
    FT_WRITE(Guarded, 1);
    M.unlock();
    FT_WRITE(Unguarded, 1);
  });
  rt::Thread B([&] {
    M.lock();
    FT_WRITE(Guarded, 2);
    M.unlock();
    FT_WRITE(Unguarded, 2);
  });
  A.join();
  B.join();
  rt::OnlineReport Report = Engine.finish();

  ASSERT_EQ(Report.NumWarnings, 1u);
  EXPECT_EQ(Detector.warnings()[0].Var, 1u); // Unguarded

  Eraser Offline;
  replay(Report.Captured, Offline);
  expectSameWarnings(Detector.warnings(), Offline.warnings());
}

//===----------------------------------------------------------------------===//
// Thread churn: recycled slots, bounded shadow lifecycle, graceful
// exhaustion (the unbounded-churn robustness contract)
//===----------------------------------------------------------------------===//

namespace {

/// Validator options for captures of sessions that recycle thread slots:
/// one dense id legally carries several non-overlapping lifetimes.
TraceValidatorOptions tidReuse() {
  TraceValidatorOptions O;
  O.AllowTidReuse = true;
  return O;
}

/// The churn suite's exact-equivalence check (checkedSession validates
/// with the default options, which reject tid reuse by design).
void expectOfflineEquivalent(const FastTrack &Online, const Trace &Captured) {
  FastTrack Offline;
  replay(Captured, Offline);
  expectSameWarnings(Online.warnings(), Offline.warnings());
}

} // namespace

TEST(ThreadChurn, SequentialChurnRecyclesSlots) {
  // 200 short-lived threads through an 8-slot table: every fork after the
  // first reincarnates the drained slot of its joined predecessor, so the
  // session pays for 2 slots (main + one live child), not 201.
  constexpr int Churn = 200;
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.MaxThreads = 8;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Shared<int> X;

  rt::Engine Engine(Detector, Options);
  for (int I = 0; I != Churn; ++I) {
    rt::Thread T([&X, I] { FT_WRITE(X, I); });
    T.join(); // join -> next fork: writes chain through main, race-free
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  for (const Diagnostic &D : Report.Diags)
    ADD_FAILURE() << toString(D);
  EXPECT_EQ(Report.NumWarnings, 0u);
  EXPECT_EQ(Report.SlotsAllocated, 2u);
  EXPECT_EQ(Report.PeakLiveSlots, 2u);
  EXPECT_EQ(Report.ThreadsRecycled, static_cast<uint64_t>(Churn - 1));
  EXPECT_EQ(Report.ForksRejected, 0u);
  EXPECT_EQ(Report.UntrackedEvents, 0u);
  // The capture genuinely reuses tids: feasible only under AllowTidReuse.
  EXPECT_TRUE(isFeasible(Report.Captured, tidReuse()));
  EXPECT_FALSE(isFeasible(Report.Captured));
  expectOfflineEquivalent(Detector, Report.Captured);
}

TEST(ThreadChurn, RecyclingOffPreservesFreshIdBehavior) {
  // The PR 3 behavior is still available: with recycling pinned off each
  // fork consumes a fresh slot forever.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.RecycleThreadSlots = false;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Shared<int> X;

  rt::Engine Engine(Detector, Options);
  for (int I = 0; I != 5; ++I) {
    rt::Thread T([&X, I] { FT_WRITE(X, I); });
    T.join();
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.SlotsAllocated, 6u); // main + 5 children
  EXPECT_EQ(Report.ThreadsRecycled, 0u);
  EXPECT_TRUE(isFeasible(Report.Captured)); // no tid ever reused
  expectOfflineEquivalent(Detector, Report.Captured);
}

TEST(ThreadChurn, ForeignThreadsGetFreshSlotsNeverRecycled) {
  // A foreign (non-runtime) thread has no fork edge, so splicing it into
  // a dead thread's slot would invent ordering: it must always take a
  // fresh slot even when drained slots are free.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.MaxThreads = 4;
  Options.ValidateCapture = false; // foreign thread: no fork edge
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  rt::Shared<int> X, Y;

  rt::Engine Engine(Detector, Options);
  rt::Thread T([&X] { FT_WRITE(X, 1); });
  T.join(); // slot 1 retires and drains
  std::thread Foreign([&Y] { FT_WRITE(Y, 2); });
  Foreign.join();
  rt::OnlineReport Report = Engine.finish();

  EXPECT_EQ(Report.SlotsAllocated, 3u); // main, child, foreign
  EXPECT_EQ(Report.ThreadsRecycled, 0u);
  EXPECT_EQ(Report.ForksRejected, 0u);
}

TEST(ThreadChurn, SlotExhaustionDegradesGracefully) {
  // 8 slots, all live (main + 7 held children): the 8th child must not
  // abort or halt detection — it runs untracked, the rejection surfaces
  // as a structured Status plus one supervisor diagnostic, and once the
  // held children are joined the next fork is tracked again.
  FastTrack Detector;
  rt::OnlineOptions Options;
  Options.MaxThreads = 8;
  Options.Degrade.Enabled = false;
  Options.Supervise.Enabled = false;
  std::vector<rt::Shared<int>> Vars(9);

  rt::Engine Engine(Detector, Options);
  std::atomic<bool> Release{false};
  std::atomic<int> Started{0};
  std::vector<rt::Thread> Held;
  for (int I = 0; I != 7; ++I)
    Held.emplace_back([&, I] {
      FT_WRITE(Vars[I], I);
      Started.fetch_add(1);
      while (!Release.load())
        std::this_thread::yield();
    });
  while (Started.load() != 7)
    std::this_thread::yield();

  // All 8 slots live: a direct fork request reports exhaustion without
  // emitting anything.
  ThreadId Direct = 0;
  Status S = Engine.tryForkThread(Direct);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::ResourceExhausted);
  EXPECT_EQ(Direct, rt::Engine::NoThread);

  // The shim path: the child still runs, untracked.
  std::atomic<bool> UntrackedRan{false};
  rt::Thread Over([&] {
    FT_WRITE(Vars[7], 7); // dropped and counted, never delivered
    UntrackedRan.store(true);
  });
  EXPECT_EQ(Over.id(), rt::Engine::NoThread);
  Over.join();
  EXPECT_TRUE(UntrackedRan.load());

  Release.store(true);
  for (rt::Thread &T : Held)
    T.join();

  // With the table drained, churn resumes on recycled slots.
  rt::Thread After([&] { FT_WRITE(Vars[8], 8); });
  After.join();
  EXPECT_NE(After.id(), rt::Engine::NoThread);

  rt::OnlineReport Report = Engine.finish();
  EXPECT_FALSE(Report.Halted);
  EXPECT_EQ(Report.SlotsAllocated, 8u);
  EXPECT_EQ(Report.PeakLiveSlots, 8u);
  EXPECT_EQ(Report.ForksRejected, 2u); // tryForkThread + the Over shim
  EXPECT_EQ(Report.UntrackedEvents, 1u);
  EXPECT_GE(Report.ThreadsRecycled, 1u);
  bool SawExhaustion = false;
  for (const Diagnostic &D : Report.Diags)
    SawExhaustion |= D.Code == StatusCode::ResourceExhausted &&
                     D.Message.find("exhausted") != std::string::npos;
  EXPECT_TRUE(SawExhaustion);
  EXPECT_TRUE(isFeasible(Report.Captured, tidReuse()));
  expectOfflineEquivalent(Detector, Report.Captured);
}

TEST(ThreadChurn, ForkJoinRoundsOnOneSharedCore) {
  // Fork/join rounds of two producers with the whole session pinned to one
  // CPU: a round's forks can find the previous round's slots still
  // retiring, and the merge loop that drains them shares the core with
  // the forking thread. The fork must wait for the drain rather than
  // fail or widen the table, and no thread of the session may park or
  // degrade.
  constexpr int Rounds = 50;
  constexpr int Producers = 2;
  constexpr int Steps = 112; // 1 + 112 x 8 = 897 events per producer
  constexpr int Stripes = 4, SliceVars = 64, TableVars = 128;

  cpu_set_t Saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(Saved), &Saved), 0);
  int Cpu = 0;
  while (!CPU_ISSET(Cpu, &Saved))
    ++Cpu;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  // Threads inherit the creator's mask: the engine's merge loop, its
  // supervisor and every producer run on this one CPU.
  ASSERT_EQ(sched_setaffinity(0, sizeof(One), &One), 0);
  struct RestoreMask {
    const cpu_set_t &Mask;
    ~RestoreMask() { sched_setaffinity(0, sizeof(Mask), &Mask); }
  } Restore{Saved};

  FastTrack Detector;
  rt::Shared<int> Hot; // written by both producers of a round: a race
  std::vector<rt::Shared<int>> Counters(Stripes), Table(TableVars);
  std::vector<std::vector<rt::Shared<int>>> Slices(Producers);
  for (std::vector<rt::Shared<int>> &Slice : Slices)
    Slice = std::vector<rt::Shared<int>>(SliceVars);
  std::vector<rt::Mutex> Locks(Stripes);

  rt::Engine Engine(Detector, rt::OnlineOptions{});
  for (int I = 0; I != TableVars; ++I)
    FT_WRITE(Table[I], I); // before the first fork: read-shared after
  for (int R = 0; R != Rounds; ++R) {
    std::vector<rt::Thread> Round;
    for (int P = 0; P != Producers; ++P)
      Round.emplace_back([&, P, R] {
        FT_WRITE(Hot, R);
        for (int K = 0; K != Steps; ++K) {
          {
            std::lock_guard<rt::Mutex> Guard(Locks[K % Stripes]);
            FT_WRITE(Counters[K % Stripes],
                     FT_READ(Counters[K % Stripes]) + 1);
          }
          rt::Shared<int> &Own = Slices[P][K % SliceVars];
          FT_WRITE(Own, FT_READ(Own) + FT_READ(Table[K % TableVars]) +
                            FT_READ(Table[(K + 7) % TableVars]));
        }
      });
    for (rt::Thread &T : Round)
      T.join();
  }
  rt::OnlineReport Report = Engine.finish();

  EXPECT_FALSE(Report.Halted);
  for (const Diagnostic &D : Report.Diags)
    ADD_FAILURE() << toString(D);
  EXPECT_EQ(Report.SlotsAllocated, 3u); // main + one slot per producer
  EXPECT_EQ(Report.ThreadsRecycled,
            static_cast<uint64_t>(Rounds * Producers - Producers));
  EXPECT_EQ(Report.ParkEpisodes, 0u);
  EXPECT_EQ(Report.ForksRejected, 0u);
  EXPECT_EQ(Report.Degradations, 0u);
  EXPECT_GE(Report.NumWarnings, 1u);
  EXPECT_TRUE(isFeasible(Report.Captured, tidReuse()));
  expectOfflineEquivalent(Detector, Report.Captured);
}

TEST(ThreadChurn, SoakTenThousandThreadsBoundedAndEquivalent) {
  // The acceptance workload: 10,000 sequential short-lived threads, one
  // deliberate race per thread on its own variable. Capped at 8 slots
  // with recycling, the session must (a) run to completion, (b) keep VC
  // width and shadow memory at max-live scale, and (c) report the same
  // races as an uncapped run that gives every thread a fresh id.
  constexpr unsigned Churn = 10000;
  std::vector<rt::Shared<int>> Vars(Churn); // distinct interned ids

  auto racedVars = [](const std::vector<RaceWarning> &Warnings) {
    std::vector<VarId> Ids;
    for (const RaceWarning &W : Warnings)
      Ids.push_back(W.Var);
    return Ids;
  };
  auto runChurn = [&](auto &Tool, rt::OnlineOptions Options) {
    Options.Supervise.Enabled = false;
    rt::Engine Engine(Tool, Options);
    for (unsigned I = 0; I != Churn; ++I) {
      rt::Thread T([&Vars, I] { FT_WRITE(Vars[I], 1); });
      FT_WRITE(Vars[I], 2); // concurrent with the child: races always
      T.join();
    }
    return Engine.finish();
  };

  // Capped run: 8 slots, recycling on, memory tracked (a huge budget so
  // the probe samples without ever breaching).
  FastTrack Capped;
  MemoryTracker Tracker;
  rt::OnlineOptions CappedOptions;
  CappedOptions.MaxThreads = 8;
  CappedOptions.Degrade.Enabled = true;
  CappedOptions.Degrade.ShadowBudgetBytes = 1ull << 40;
  CappedOptions.Degrade.Tracker = &Tracker;
  rt::OnlineReport CappedReport = runChurn(Capped, CappedOptions);

  EXPECT_FALSE(CappedReport.Halted);
  EXPECT_EQ(CappedReport.DegradeRung, 0u); // tracked, never degraded
  EXPECT_EQ(CappedReport.NumWarnings, Churn);
  EXPECT_EQ(CappedReport.SlotsAllocated, 2u); // peak VC width = max-live
  EXPECT_EQ(CappedReport.PeakLiveSlots, 2u);
  EXPECT_EQ(CappedReport.ThreadsRecycled, Churn - 1);
  EXPECT_EQ(CappedReport.ForksRejected, 0u);
  // Bounded RSS: 10k threads' shadow fits in single-digit megabytes
  // (an uncapped FastTrack64 run pays hundreds for the VC columns).
  EXPECT_GT(Tracker.peakBytes(), 0u);
  EXPECT_LT(Tracker.peakBytes(), 16u << 20);
  EXPECT_TRUE(isFeasible(CappedReport.Captured, tidReuse()));
  expectOfflineEquivalent(Capped, CappedReport.Captured);

  // Uncapped control: fresh 16-bit-tid slots for all 10k threads (the
  // 8-bit default epoch layout cannot even name them).
  FastTrack64 Uncapped;
  rt::OnlineOptions UncappedOptions;
  UncappedOptions.MaxThreads = Churn + 50;
  UncappedOptions.RecycleThreadSlots = false;
  UncappedOptions.RingCapacity = 64; // 10k rings: keep the table small
  UncappedOptions.Degrade.Enabled = false;
  rt::OnlineReport UncappedReport = runChurn(Uncapped, UncappedOptions);

  EXPECT_FALSE(UncappedReport.Halted);
  EXPECT_EQ(UncappedReport.NumWarnings, Churn);
  EXPECT_EQ(UncappedReport.SlotsAllocated, Churn + 1);
  EXPECT_EQ(UncappedReport.ThreadsRecycled, 0u);
  EXPECT_TRUE(isFeasible(UncappedReport.Captured));

  // No warning differences: the same variables race, in the same order
  // (one per churn iteration; reporter thread/epoch are schedule-local).
  EXPECT_EQ(racedVars(Capped.warnings()), racedVars(Uncapped.warnings()));
}
