#include "runtime/Engine.h"

#include "framework/ShardableTool.h"
#include "runtime/FaultPlan.h"
#include "trace/TraceIO.h"
#include "trace/TraceValidator.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace ft;
using namespace ft::runtime;

namespace {

/// The one live session (shims attach through Engine::current()).
std::atomic<Engine *> CurrentEngine{nullptr};

/// Session stamps start at 1 so a zero-initialized object cache never
/// matches a real generation.
std::atomic<uint64_t> GenerationCounter{0};

/// The wait of a thread blocked on another thread's progress (a ring to
/// drain, a slot to retire): yield for the first 64 rounds, so on a shared
/// core the thread being waited for gets the CPU at once, then sleep 50 us
/// a round so a long wait does not burn a core.
struct Backoff {
  unsigned Spins = 0;
  void pause() {
    if (++Spins < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
};

ToolContext capacityContext(const OnlineOptions &Options) {
  ToolContext Context;
  Context.NumThreads = Options.MaxThreads;
  Context.NumVars = Options.MaxVars;
  Context.NumLocks = Options.MaxLocks;
  Context.NumVolatiles = Options.MaxVolatiles;
  return Context;
}

/// The session's shadow-governance policy: the configured one, with the
/// FaultPlan's real allocation failures folded in (arming either shadow
/// fault forces governance on — the gates live inside the governed
/// table), and an unset table budget inheriting the ladder's.
ShadowMemoryPolicy effectiveMemoryPolicy(const OnlineOptions &Options) {
  ShadowMemoryPolicy M = Options.Degrade.Memory;
  if (Options.Faults) {
    if (Options.Faults->FailShadowPageAllocAt != FaultPlan::None) {
      M.Enabled = true;
      M.FailPageAllocAt = Options.Faults->FailShadowPageAllocAt;
    }
    if (Options.Faults->FailSideStoreInflateAt != FaultPlan::None) {
      M.Enabled = true;
      M.FailInflateAt = Options.Faults->FailSideStoreInflateAt;
    }
  }
  if (M.Enabled && M.BudgetBytes == 0)
    M.BudgetBytes = Options.Degrade.ShadowBudgetBytes;
  return M;
}

OnlineDriverOptions driverOptions(const OnlineOptions &Options,
                                  unsigned NumShards,
                                  std::function<uint64_t()> ShadowBytes,
                                  std::function<ShadowGovernorStats()> Gov) {
  OnlineDriverOptions Driver;
  // With shards the primary driver is admission-only: it owns the ladder,
  // the capacity checks, the raw indices, and the lock filter, but the
  // tool handlers run in the shard workers' DispatchOnly drivers. Its
  // budget probes read the shadow bytes and governance telemetry the
  // workers publish (its own tool instance never grows), and the warning
  // sink stays empty — shard drivers sink warnings live; installing it
  // here too would replay every adopted warning a second time at
  // finish().
  Driver.Role =
      NumShards > 1 ? DriverRole::AdmissionOnly : DriverRole::Full;
  Driver.ShadowBytes = std::move(ShadowBytes);
  Driver.GovernorStats = std::move(Gov);
  Driver.FilterReentrantLocks = Options.FilterReentrantLocks;
  if (NumShards == 1)
    Driver.WarningSink = Options.OnWarning;
  Driver.Degrade = Options.Degrade;
  Driver.Degrade.Memory = effectiveMemoryPolicy(Options);
  if (Options.Faults)
    Driver.ForceBudgetBreachAtRawOp = Options.Faults->ForceBudgetBreachAtRawOp;
  return Driver;
}

/// How many shard sequencers this session actually runs. Shards > 1
/// requires the ShardableTool clone/merge hooks; a tool without them
/// falls back to the single-sequencer engine (the constructor attaches
/// the explanatory Note).
unsigned resolveShardCount(const OnlineOptions &Options, Tool &Checker) {
  unsigned N = Options.Shards == 0 ? 1 : Options.Shards;
  N = std::min(N, 64u);
  if (N > 1 && dynamic_cast<ShardableTool *>(&Checker) == nullptr)
    return 1;
  return N;
}

/// Which engine/channel the calling thread is bound to. Rebinding is
/// lazy: a thread carrying a stale binding (from a finished session)
/// re-registers against the live engine on first emit.
struct TlsBinding {
  const void *E = nullptr;
  void *Ch = nullptr;
};
thread_local TlsBinding Binding;

} // namespace

Engine *Engine::current() {
  return CurrentEngine.load(std::memory_order_acquire);
}

/// One shard worker's whole world. BatchPtr/BatchLen/BatchPos/SyncSeen
/// are worker-private in the steady state, but they live here (not on the
/// worker's stack) so a restarted worker resumes *exactly* where its
/// wedged predecessor stopped. The batch is consumed in place (peekRun):
/// events stay in the ring until dispatched-and-release()d, so the
/// undispatched suffix survives a worker swap by construction. Access is
/// serialized by the supervisor's join-before-respawn discipline.
struct Engine::Shard {
  Shard(unsigned Index, size_t RingCapacity, size_t BatchCap)
      : Index(Index), BatchCap(BatchCap), Ring(RingCapacity) {}

  const unsigned Index;
  const size_t BatchCap; ///< Upper bound on one peeked batch — bounds how
                         ///< long the worker can go between halt/epoch
                         ///< checks, like the router's SequencerBatch.
  EventRing Ring; ///< router → worker (SPSC; Seq = raw op index).
  std::unique_ptr<Tool> Clone;          ///< Shard-local tool instance.
  std::unique_ptr<OnlineDriver> Driver; ///< DispatchOnly over Clone.
  std::thread Worker;

  std::atomic<uint64_t> Routed{0};  ///< Events the router pushed.
  std::atomic<uint64_t> Drained{0}; ///< Events the worker dispatched or
                                    ///< discarded — the shard's drain
                                    ///< watermark (stall detection).
  std::atomic<uint64_t> SyncDone{0}; ///< Sync ordinals fully dispatched:
                                     ///< the ticket watermark siblings
                                     ///< wait on at the spine barrier.
  std::atomic<bool> AtBarrier{false}; ///< Worker is waiting at the spine
                                      ///< barrier (legitimately idle —
                                      ///< not a stall).
  std::atomic<uint64_t> ShadowPublished{0}; ///< Clone->shadowBytes() as
                                            ///< of the last batch refill;
                                            ///< read by the admission
                                            ///< driver's budget probe.
  std::atomic<uint64_t> TripsPublished{0};  ///< Clone governor BudgetTrips
                                            ///< as of the last publish.
  std::atomic<uint64_t> DeniedPublished{0}; ///< Clone governor AllocDenied
                                            ///< as of the last publish.
  std::atomic<uint64_t> Epoch{0}; ///< Bumped to abandon the worker.
  std::atomic<unsigned> Restarts{0};
  std::atomic<uint64_t> Discards{0}; ///< Post-halt discards worker-side.

  // Restart-resume state (see struct comment). BatchPtr points into the
  // ring's buffer (stable storage); [BatchPos, BatchLen) is the peeked,
  // not-yet-released remainder.
  const OnlineEvent *BatchPtr = nullptr;
  size_t BatchLen = 0;
  size_t BatchPos = 0;
  uint64_t SyncSeen = 0;    ///< Sync ordinals this worker has dispatched.
  uint64_t RefillCount = 0; ///< Throttles the shadow-size publish.
  unsigned EmptyPolls = 0;  ///< Consecutive empty refills (idle backoff).
};

Engine::Engine(Tool &Checker, OnlineOptions Opts)
    : Checker(Checker), Options(std::move(Opts)),
      Gen(GenerationCounter.fetch_add(1, std::memory_order_relaxed) + 1),
      NumShards(resolveShardCount(Options, Checker)),
      Driver(Checker, capacityContext(Options),
             driverOptions(Options, NumShards,
                           NumShards > 1
                               ? std::function<uint64_t()>(
                                     [this] { return shardShadowBytes(); })
                               : std::function<uint64_t()>(),
                           NumShards > 1
                               ? std::function<ShadowGovernorStats()>(
                                     [this] { return shardGovernorStats(); })
                               : std::function<ShadowGovernorStats()>())),
      MemCapture(Options.KeepCapture ||
                 (!Options.CapturePath.empty() &&
                  Options.CaptureSegmentBytes == 0)),
      Capturing(false) {
  if (!Options.CapturePath.empty() && Options.CaptureSegmentBytes != 0) {
    // Segmented flight recorder: CapturePath names the chain prefix (a
    // trailing .trc is stripped — segments carry their own extension).
    std::string Prefix = Options.CapturePath;
    if (Prefix.size() > 4 &&
        Prefix.compare(Prefix.size() - 4, 4, ".trc") == 0)
      Prefix.resize(Prefix.size() - 4);
    SegmentWriterOptions SW;
    SW.SegmentBytes = Options.CaptureSegmentBytes;
    SegWriter = std::make_unique<SegmentedTraceWriter>(Prefix, SW);
  }
  Capturing = MemCapture || SegWriter != nullptr;
  if (Options.ShardBlockVars == 0)
    Options.ShardBlockVars = 1;
  if ((Options.ShardBlockVars & (Options.ShardBlockVars - 1)) == 0 &&
      (NumShards & (NumShards - 1)) == 0) {
    ShardDivShift = static_cast<unsigned>(__builtin_ctz(Options.ShardBlockVars));
    ShardIdxMask = NumShards - 1;
  }
  if (Options.Shards > 1 && NumShards == 1)
    superviseNote(Severity::Note, StatusCode::ValidationError,
                  std::string("tool '") + Checker.name() +
                      "' does not implement ShardableTool; falling back "
                      "to the single-sequencer engine");

  if (NumShards > 1) {
    auto &Shardable = dynamic_cast<ShardableTool &>(Checker);
    const size_t BatchCap = std::max<size_t>(1, Options.SequencerBatch);
    const size_t RingCap =
        Options.ShardRingCapacity != 0
            ? Options.ShardRingCapacity
            : std::max(Options.RingCapacity, 4 * BatchCap);
    // Per-shard governance: each clone self-governs against an equal
    // slice of the byte budget (the admission driver's ladder probe still
    // sees the sum via shardGovernorStats). Configured before the shard
    // driver exists — its begin() is what applies the policy.
    ShadowMemoryPolicy ShardMem = effectiveMemoryPolicy(Options);
    if (ShardMem.BudgetBytes != 0)
      ShardMem.BudgetBytes =
          std::max<uint64_t>(1, ShardMem.BudgetBytes / NumShards);
    for (unsigned I = 0; I != NumShards; ++I) {
      auto S = std::make_unique<Shard>(I, RingCap, BatchCap);
      S->Clone = Shardable.cloneForShard();
      if (Options.Degrade.Enabled && ShardMem.Enabled)
        ShardMemoryGoverned = S->Clone->configureShadowPolicy(ShardMem);
      OnlineDriverOptions DO;
      DO.Role = DriverRole::DispatchOnly;
      // Admission already ran the lock filter and the ladder transform on
      // everything in this shard's ring; running either again would
      // desync the clone from the capture.
      DO.FilterReentrantLocks = false;
      DO.Degrade.Enabled = false;
      if (Options.OnWarning)
        DO.WarningSink = [this](const RaceWarning &W) {
          std::lock_guard<std::mutex> Guard(SinkMu);
          Options.OnWarning(W);
        };
      S->Driver = std::make_unique<OnlineDriver>(
          *S->Clone, capacityContext(Options), std::move(DO));
      ShardSet.push_back(std::move(S));
    }
  }

  // The constructing thread is the session's main thread, dense id 0 (a
  // slot that is always live — the main thread is never joined).
  {
    std::lock_guard<std::mutex> Guard(ChannelMu);
    Binding = {this, takeSlotLocked(/*ForeignThread=*/false)};
  }

  assert(CurrentEngine.load(std::memory_order_relaxed) == nullptr &&
         "one online session at a time");
  CurrentEngine.store(this, std::memory_order_release);

  for (std::unique_ptr<Shard> &S : ShardSet) {
    Shard *P = S.get();
    P->Worker = std::thread([this, P] { shardLoop(*P, 0); });
  }
  SequencerThread = std::thread([this] { mergeLoop(0); });
  if (Options.Supervise.Enabled)
    SupervisorThread = std::thread([this] { supervisorLoop(); });
}

Engine::~Engine() {
  if (!Finished)
    (void)finish();
}

Engine::Channel *Engine::registerThreadLocked(ThreadId Id) {
  Channels.push_back(std::make_unique<Channel>(Id, Options.RingCapacity));
  NumChannels.store(Channels.size(), std::memory_order_release);
  ++LiveSlots;
  PeakLiveSlots = std::max(PeakLiveSlots, LiveSlots);
  return Channels.back().get();
}

void Engine::promoteDrainedLocked() {
  // Retiring → Free once the sequencer has drained the dead thread's
  // ring. Ring.empty() is an acquire on both ends, so a true answer means
  // every event of the dead incarnation has been popped — and popped
  // events dispatch strictly before anything the successor will push,
  // because dispatch order is ticket order and the successor's tickets
  // all postdate the parent's join ticket.
  size_t Out = 0;
  for (Channel *Ch : RetiringSlots) {
    if (Ch->Ring.empty()) {
      Ch->State = SlotState::Free;
      FreeSlots.push_back(Ch);
    } else {
      RetiringSlots[Out++] = Ch;
    }
  }
  RetiringSlots.resize(Out);
}

Engine::Channel *Engine::takeSlotLocked(bool ForeignThread,
                                        bool FreshDespiteRetiring) {
  promoteDrainedLocked();
  // Reincarnation first: same dense id, so the tool's VC column still
  // holds the dead incarnation's final clock and the coming fork's join
  // doubles as the dead→successor happens-before edge (see the class
  // comment). Foreign threads never reincarnate a slot: without a fork
  // event a recycled id would splice an unrelated thread into the dead
  // thread's history with no edge to justify it — they get fresh slots
  // (conservatively unordered) or run untracked.
  bool MayRecycle = !ForeignThread && Options.RecycleThreadSlots;
  if (MayRecycle && !FreeSlots.empty()) {
    Channel *Ch = FreeSlots.back();
    FreeSlots.pop_back();
    Ch->State = SlotState::Live;
    ++ThreadsRecycled;
    ++LiveSlots;
    PeakLiveSlots = std::max(PeakLiveSlots, LiveSlots);
    return Ch;
  }
  // A retiring slot is a recycled slot in a few ring-drain microseconds:
  // prefer waiting for it (acquireSlot's bounded loop) over widening the
  // table, so VC width and shadow memory track *max-live* threads, not
  // churn. Only once the caller's drain wait has expired does a fresh
  // slot beat an undrained one.
  if (MayRecycle && !RetiringSlots.empty() && !FreshDespiteRetiring)
    return nullptr;
  if (Channels.size() < Options.MaxThreads)
    return registerThreadLocked(Interner.allocateThreadId());
  return nullptr;
}

Engine::Channel *Engine::acquireSlot(bool ForeignThread) {
  // While a joined thread's slot is still draining, wait for it. Draining
  // is the merge loop's normal job (ring-latency fast), and the backoff
  // yields first because on a shared core this thread is what keeps the
  // merge loop off the CPU; the one legitimate slow case is a stalled
  // merge loop, which the supervisor recovers within its own deadline —
  // so wait bounded rather than failing eagerly or forever.
  Stopwatch Wait;
  const uint64_t DeadlineNs =
      static_cast<uint64_t>(Options.SlotDrainWaitMs) * 1000000ull;
  for (Backoff Spin;; Spin.pause()) {
    std::lock_guard<std::mutex> Guard(ChannelMu);
    if (Channel *Ch = takeSlotLocked(ForeignThread))
      return Ch;
    if (ForeignThread || !Options.RecycleThreadSlots ||
        RetiringSlots.empty() || Wait.nanoseconds() >= DeadlineNs ||
        Halted.load(std::memory_order_acquire))
      // Give up on the drain: take a fresh slot if the table still has
      // room (robustness beats width), else report exhaustion.
      return takeSlotLocked(ForeignThread, /*FreshDespiteRetiring=*/true);
  }
}

void Engine::noteExhaustion(const char *Who) {
  ForksRejected.fetch_add(1, std::memory_order_relaxed);
  // One diagnostic and one ladder request however many threads bounce:
  // shedding a rung helps retiring rings drain faster, but no amount of
  // degradation conjures slots, so repeating the request is noise.
  if (ExhaustionNoted.exchange(true, std::memory_order_acq_rel))
    return;
  superviseNote(Severity::Warning, StatusCode::ResourceExhausted,
                std::string(Who) + ": thread-slot table exhausted (" +
                    std::to_string(Options.MaxThreads) +
                    " slots all live or undrained); over-cap threads run "
                    "untracked, their events dropped and counted");
  if (Options.Degrade.Enabled)
    PendingDegrade.fetch_add(1, std::memory_order_relaxed);
}

Engine::Channel *Engine::channelForCurrentThread() {
  if (Binding.E == this)
    return static_cast<Channel *>(Binding.Ch); // null = untracked binding
  // A thread the runtime has not seen: auto-register so its events are
  // analyzed rather than lost. Without a fork edge its accesses are
  // conservatively unordered with every other thread; captures containing
  // it fail the validator's fork-before-first-op rule (see class comment).
  // Always a fresh slot, never a recycled one (see takeSlotLocked); on
  // exhaustion the thread runs untracked rather than halting detection.
  Channel *Ch = acquireSlot(/*ForeignThread=*/true);
  if (!Ch)
    noteExhaustion("foreign thread");
  Binding = {this, Ch};
  return Ch;
}

void Engine::bindCurrentThread(ThreadId Id) {
  // The slot was reserved (and its channel created) by forkThread(); the
  // thread-creation edge orders this producer's ring accesses after the
  // previous incarnation's, so the SPSC ring hand-off needs no extra
  // synchronization.
  std::lock_guard<std::mutex> Guard(ChannelMu);
  for (const std::unique_ptr<Channel> &Ch : Channels)
    if (Ch->Id == Id) {
      Binding = {this, Ch.get()};
      return;
    }
  // Hand-rolled caller with an id the engine never issued: register it so
  // events are analyzed rather than lost (pre-recycling behavior).
  Binding = {this, registerThreadLocked(Id)};
}

void Engine::bindCurrentThreadUntracked() { Binding = {this, nullptr}; }

void Engine::emit(OpKind Kind, uint32_t Target) {
  Channel *Ch = channelForCurrentThread();
  if (!Ch) {
    // Untracked thread (slot exhaustion): never silent, never fatal.
    UntrackedEvents.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Acquire pairs with the release store at every halt site: see the
  // Halted declaration for why relaxed would be wrong here.
  if (Halted.load(std::memory_order_acquire)) {
    Ch->DroppedPostHalt.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Backpressure: park until the sequencer drains. The ticket is drawn
  // only after space is certain, so the sequencer never waits on a seq
  // number owned by a parked thread (that would deadlock the pipeline) —
  // and an event shed while parked owns no ticket either, so shedding
  // leaves no gap in the sequence.
  if (!Ch->Ring.hasSpace() && !parkUntilSpace(Ch, Kind))
    return;
  OnlineEvent E;
  E.Seq = Seq.fetch_add(1, std::memory_order_relaxed);
  E.Kind = Kind;
  E.Target = Target;
  Ch->Ring.push(E);
}

bool Engine::parkUntilSpace(Channel *Ch, OpKind Kind) {
  // The cold path: the producer is about to block on the detector. The
  // supervisor bounds that: a parked *access* is shed after MaxParkMs (or
  // immediately in drop-and-count mode) and counted; sync events are the
  // HB spine and keep waiting — the watchdog recovers the sequencer
  // within its own deadline, so even they cannot wait unboundedly unless
  // supervision is pinned off.
  Ch->Parks.fetch_add(1, std::memory_order_relaxed);
  ProducersParked.fetch_add(1, std::memory_order_relaxed);
  const bool Droppable = isAccess(Kind) && Options.Supervise.Enabled;
  const uint64_t DeadlineNs =
      static_cast<uint64_t>(Options.Supervise.MaxParkMs) * 1000000ull;
  Stopwatch Park;
  Backoff Spin;
  bool GotSpace = false;
  for (;;) {
    if (Ch->Ring.hasSpace()) {
      GotSpace = true;
      break;
    }
    if (Halted.load(std::memory_order_acquire)) {
      Ch->DroppedPostHalt.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (Droppable) {
      if (DropAccesses.load(std::memory_order_acquire)) {
        Ch->DroppedOverload.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (Park.nanoseconds() >= DeadlineNs) {
        Ch->DroppedOverload.fetch_add(1, std::memory_order_relaxed);
        DeadlineDrops.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    Spin.pause();
  }
  ProducersParked.fetch_sub(1, std::memory_order_relaxed);
  return GotSpace;
}

Status Engine::tryForkThread(ThreadId &Child) {
  Child = NoThread;
  Channel *Slot = acquireSlot(/*ForeignThread=*/false);
  if (!Slot) {
    // Max-live genuinely exceeds the cap: a structured error, a one-time
    // supervisor diagnostic, and (when enabled) one ladder downgrade —
    // the production answer to "out of slots", where PR 3's fixed table
    // made the driver halt detection on the first over-cap thread id.
    noteExhaustion("forkThread");
    return Status::error(StatusCode::ResourceExhausted,
                         "thread-slot table exhausted (" +
                             std::to_string(Options.MaxThreads) +
                             " slots all live or undrained); child will "
                             "run untracked");
  }
  Child = Slot->Id;
  // Ticketed before the native thread starts, so fork(t, u) precedes
  // every event of u in the merged order — and, for a recycled slot,
  // strictly after the predecessor's join ticket, so the tool sees
  // join(t, u) ... fork(t', u) with nothing of u in between.
  emit(OpKind::Fork, Child);
  return Status();
}

ThreadId Engine::forkThread() {
  ThreadId Child = NoThread;
  (void)tryForkThread(Child);
  return Child;
}

void Engine::joinThread(ThreadId Child) {
  if (Child == NoThread)
    return; // untracked child: no slot, no events, no edge to emit
  // Ticketed after the native join returned, so every event of the child
  // precedes join(t, u) in the merged order.
  emit(OpKind::Join, Child);
  if (!Options.RecycleThreadSlots)
    return;
  // Retire the slot. The ring may still hold undrained events (they all
  // predate the join ticket just drawn); the slot becomes reusable only
  // once the sequencer has emptied it (promoteDrainedLocked).
  std::lock_guard<std::mutex> Guard(ChannelMu);
  for (const std::unique_ptr<Channel> &Ch : Channels)
    if (Ch->Id == Child && Ch->State == SlotState::Live) {
      Ch->State = SlotState::Retiring;
      RetiringSlots.push_back(Ch.get());
      --LiveSlots;
      break;
    }
}

void Engine::noteMaxBacklog(uint64_t Backlog) {
  uint64_t Seen = MaxBacklogSeen.load(std::memory_order_relaxed);
  while (Backlog > Seen &&
         !MaxBacklogSeen.compare_exchange_weak(Seen, Backlog,
                                               std::memory_order_relaxed))
    ;
}

unsigned Engine::shardIndexFor(uint32_t Target) const {
  // Block-cyclic on the POST-transform id. Routing after the admission
  // driver's coarse-rung remap is what keeps sharding exactly equivalent
  // to the serial engine on every rung: whatever id the transform
  // produced is the id whose VarState the access updates, so every access
  // to that state lands in the same shard, in admission order.
  if (ShardDivShift != ~0u)
    return static_cast<unsigned>((Target >> ShardDivShift) & ShardIdxMask);
  return static_cast<unsigned>((Target / Options.ShardBlockVars) % NumShards);
}

uint64_t Engine::shardShadowBytes() const {
  // The admission driver's budget-probe source. Probing the clones'
  // containers from the router thread would race the workers; instead
  // each worker publishes its clone's size at every batch refill and the
  // probe sums the published values (staleness of one batch is fine — the
  // budget trigger is a trend detector, not an invariant).
  uint64_t Total = 0;
  for (const std::unique_ptr<Shard> &S : ShardSet)
    Total += S->ShadowPublished.load(std::memory_order_relaxed);
  return Total;
}

ShadowGovernorStats Engine::shardGovernorStats() const {
  // The admission driver's governance-poll source (same publish-and-sum
  // discipline as shardShadowBytes — probing the clones directly from the
  // router thread would race the workers). Only the two counters the
  // probe branches on are published; finish() reads the clones' full
  // stats after the workers are joined.
  ShadowGovernorStats Total;
  for (const std::unique_ptr<Shard> &S : ShardSet) {
    Total.BudgetTrips += S->TripsPublished.load(std::memory_order_relaxed);
    Total.AllocDenied += S->DeniedPublished.load(std::memory_order_relaxed);
  }
  return Total;
}

void Engine::mergeLoop(uint64_t Epoch) {
  // The session's one merge loop, at every shard count: merge the rings by
  // ticket, run admission (degradation ladder, capacity checks, lock
  // filtering, raw-index assignment), capture the delivered stream, and
  // publish the watermark once per batch. With one shard the driver has
  // the Full role and offer() also runs the tool in place. With shards the
  // driver is admission-only and this loop is the *router*: admitted
  // accesses go to the shard owning their variable, admitted sync events
  // to every shard (the cross-shard spine). The raw index admission just
  // assigned rides in OnlineEvent::Seq so shard tools see the same op
  // indices as the unsharded engine.
  //
  // A successor resumes exactly at the predecessor's published watermark:
  // batches are popped, admitted, and published atomically with respect
  // to abandonment (the epoch is only checked between batches).
  uint64_t Next = NextSeq.load(std::memory_order_acquire);
  std::vector<Channel *> Snapshot;
  size_t Known = 0;
  const size_t BatchCap = std::max<size_t>(1, Options.SequencerBatch);
  std::vector<OnlineEvent> Batch(BatchCap);
  std::vector<Operation> Delivered;
  Delivered.reserve(BatchCap);
  const bool Sharded = NumShards > 1;
  // Routed accesses are staged per shard and flushed as whole runs
  // (EventRing::pushRun: one release store per run, not one per event) —
  // transport is what sharding pays over the unsharded engine, so it is
  // kept off the per-event path. Flushes happen when a stage fills,
  // before any broadcast sync (per-shard ring order must match admission
  // order), and before every watermark publish (a batch only counts as
  // "routed" once its staged events are in the rings).
  // Capped at 1024 events: past that the flush amortization is already
  // total, and NumShards stage buffers at SequencerBatch size would cost
  // more in cache footprint than the batching saves.
  size_t StageCap = 1;
  std::vector<std::vector<OnlineEvent>> Stage;
  if (Sharded) {
    StageCap = std::max<size_t>(
        1, std::min({BatchCap, ShardSet.front()->Ring.capacity() / 2,
                     static_cast<size_t>(1024)}));
    Stage.resize(NumShards);
    for (std::vector<OnlineEvent> &Buf : Stage)
      Buf.reserve(StageCap);
  }
  // The router must NEVER abandon an admitted event: it is already in the
  // capture and owns a raw index, so dropping it would desync every
  // shard's state from the capture the equivalence contract replays. A
  // full ring is backpressure (the shard is behind) or a wedged worker —
  // either way the fix is on the shard side, so the router parks and
  // raises RouterBlockedOnShard, which (a) tells the supervisor its
  // frozen watermark is the shard's fault and (b) keeps the supervisor
  // from restarting a router it could never join. Only a halt lets the
  // router give up, discarding and counting the rest.
  auto FlushShard = [&](unsigned SI) {
    std::vector<OnlineEvent> &Buf = Stage[SI];
    if (Buf.empty())
      return;
    Shard &S = *ShardSet[SI];
    size_t Off = 0;
    Backoff Spin;
    bool Flagged = false;
    while (Off != Buf.size()) {
      size_t K = S.Ring.pushRun(Buf.data() + Off, Buf.size() - Off);
      if (K != 0) {
        S.Routed.fetch_add(K, std::memory_order_release);
        Off += K;
        Spin = Backoff();
        continue;
      }
      if (Halted.load(std::memory_order_acquire)) {
        DiscardedPostHalt += Buf.size() - Off;
        break;
      }
      if (!Flagged) {
        Flagged = true;
        RouterBlockedOnShard.store(true, std::memory_order_release);
      }
      Spin.pause();
    }
    if (Flagged)
      RouterBlockedOnShard.store(false, std::memory_order_release);
    Buf.clear();
  };
  auto StageAccess = [&](const OnlineEvent &Routed) {
    unsigned SI = shardIndexFor(Routed.Target);
    Stage[SI].push_back(Routed);
    if (Stage[SI].size() >= StageCap)
      FlushShard(SI);
  };
  const FaultPlan *Faults = Options.Faults;
  uint64_t LocalMaxBacklog = 0;
  bool Abandoned = false;
  while (!Abandoned) {
    if (SequencerEpoch.load(std::memory_order_acquire) != Epoch)
      break;
    // Rung downgrades requested by the supervisor are applied here: the
    // driver is single-threaded, so only this loop may touch it.
    if (unsigned K = PendingDegrade.exchange(0, std::memory_order_acq_rel)) {
      while (K-- != 0 &&
             Driver.requestStepDown(StatusCode::Stalled,
                                    "supervisor: sustained overload"))
        ;
    }
    // Rebuild the channel snapshot only when a registration happened;
    // the steady-state sweep never touches ChannelMu.
    if (NumChannels.load(std::memory_order_acquire) != Known) {
      std::lock_guard<std::mutex> Guard(ChannelMu);
      Snapshot.clear();
      for (const std::unique_ptr<Channel> &Ch : Channels)
        Snapshot.push_back(Ch.get());
      Known = Channels.size();
    }
    uint64_t Backlog = Seq.load(std::memory_order_relaxed) - Next;
    if (Backlog > LocalMaxBacklog)
      LocalMaxBacklog = Backlog;
    bool Progress = false;
    for (Channel *Ch : Snapshot) {
      // Drain this ring's run of consecutive tickets in batches: the
      // events are copied out and their slots released in one Head store
      // (so a parked producer unblocks early), then admitted from the
      // local buffer. A short batch means the run ended — either the
      // ring is out of events or its head ticket is from the future, so
      // move on to the other rings.
      for (;;) {
        // Injected wedge (FaultPlan): busy-wait *before* consuming the
        // ticket, so nothing is popped-but-undelivered — the supervisor
        // abandons this thread and its successor resumes cleanly here.
        if (Faults && Faults->takeStall(Next)) {
          while (SequencerEpoch.load(std::memory_order_acquire) == Epoch)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          Abandoned = true;
          break;
        }
        size_t Cap = BatchCap;
        if (Faults &&
            Faults->StallsArmed.load(std::memory_order_relaxed) != 0 &&
            Faults->StallAtTicket > Next &&
            Faults->StallAtTicket - Next < Cap)
          // Stop the batch right before the stall ticket so the check
          // above sees it exactly (a batch advances Next wholesale).
          Cap = static_cast<size_t>(Faults->StallAtTicket - Next);
        size_t N = Ch->Ring.popRunInto(Next, Batch.data(), Cap);
        if (N == 0)
          break;
        Progress = true;
        Delivered.clear();
        size_t I = 0;
        while (I != N) {
          if (Halted.load(std::memory_order_relaxed)) {
            // Ticketed before the halt landed; discarded but counted —
            // no silent loss (the relaxed load is fine: this thread set
            // the flag itself or will re-check via the driver).
            ++DiscardedPostHalt;
            ++I;
            continue;
          }
          // Sharded access stretches take the batched admission fast
          // path: one admitAccessRun() call consumes the whole stretch's
          // raw indices and events move straight from the merge batch
          // into the shard stages, without materializing per-event
          // Operations or paying offer()'s per-event checks. Anything
          // that needs to look at events individually — a degraded rung,
          // a pending budget probe, a capacity breach, armed faults —
          // falls back to the per-event path below, which owns the exact
          // semantics.
          if (Sharded && !Faults && isAccess(Batch[I].Kind)) {
            size_t End = I + 1;
            while (End != N && isAccess(Batch[End].Kind))
              ++End;
            const size_t Len = End - I;
            if (Driver.admitAccessRun(Ch->Id, &Batch[I], Len)) {
              const uint64_t Base = Driver.rawOps() - Len;
              for (size_t J = I; J != End; ++J) {
                if (Capturing)
                  Delivered.push_back(
                      Operation(Batch[J].Kind, Ch->Id, Batch[J].Target));
                StageAccess({Base + (J - I), Batch[J].Kind, Batch[J].Target,
                             Ch->Id});
              }
              I = End;
              continue;
            }
          }
          Operation Op(Batch[I].Kind, Ch->Id, Batch[I].Target);
          OnlineDriver::DispatchOutcome Outcome = Driver.offer(Op);
          if (Outcome == OnlineDriver::DispatchOutcome::Delivered) {
            if (Capturing)
              Delivered.push_back(Op);
            if (Sharded) {
              // The index just assigned.
              const OnlineEvent Routed{Driver.rawOps() - 1, Op.Kind,
                                       Op.Target, Ch->Id};
              if (isAccess(Op.Kind)) {
                StageAccess(Routed);
              } else if (!Driver.lastAdmittedFiltered()) {
                // The spine: every shard sees every admitted sync event,
                // in admission order — that shared subsequence is what
                // makes a per-shard sync *ordinal* well defined without
                // carrying an extra field. Filter-stripped lock events are
                // captured (they own raw indices) but never routed: shard
                // drivers run with the filter off. The sync joins each
                // shard's staged accesses and the stage flushes, so every
                // ring receives it after the accesses admitted before it.
                for (unsigned SI = 0; SI != NumShards; ++SI) {
                  Stage[SI].push_back(Routed);
                  FlushShard(SI);
                }
              }
            }
            if (Faults && Faults->inStorm(Batch[I].Seq))
              std::this_thread::sleep_for(
                  std::chrono::microseconds(Faults->DelayPerDeliveryUs));
          } else if (Outcome == OnlineDriver::DispatchOutcome::Rejected) {
            // Unrecoverable driver halt. Release pairs with the acquire
            // in emit(): the driver's diagnostics are fully written
            // before producers can observe the flag (see Halted).
            Halted.store(true, std::memory_order_release);
            ++DiscardedPostHalt;
          }
          ++I;
        }
        if (!Delivered.empty()) {
          // Batched capture (no per-event branch in the steady state):
          // the whole delivered run lands in one appendRun / one
          // segment write.
          if (MemCapture)
            Capture.appendRun(Delivered.data(), Delivered.size());
          if (SegWriter)
            SegWriter->append(Delivered.data(), Delivered.size());
        }
        // Publish the merge watermark per batch: the watchdog reads it
        // for stall detection and a successor resumes from it. The
        // OnlineOptions::SequencerBatch invariant: published watermarks
        // are strictly increasing and only ever move past *fully*
        // processed batches — admitted, captured, AND routed (staged
        // events count as routed only once flushed into their rings) —
        // so a restarted loop never re-admits (duplicate raw indices) or
        // skips (holes in the capture) an event.
        for (unsigned SI = 0; SI != Stage.size(); ++SI)
          FlushShard(SI);
        assert(Next > NextSeq.load(std::memory_order_relaxed) &&
               "per-batch watermark must advance monotonically");
        NextSeq.store(Next, std::memory_order_release);
        if (N != Cap)
          break;
      }
      if (Abandoned)
        break;
    }
    if (Abandoned)
      break;
    if (Progress)
      continue;
    // No ring held ticket Next: either it is in flight (drawn but not yet
    // published — a handful of instructions), or nothing is happening.
    if (!Running.load(std::memory_order_acquire) &&
        Next == Seq.load(std::memory_order_acquire))
      break;
    std::this_thread::yield();
  }
  noteMaxBacklog(LocalMaxBacklog);
  // Vector-clock counters are thread-local (see ClockStats.h); each
  // incarnation folds its block in at exit. ClocksMu covers the sharded
  // engine, where shard workers can exit concurrently.
  std::lock_guard<std::mutex> Guard(ClocksMu);
  SequencerClocks += clockStats();
}

void Engine::shardLoop(Shard &S, uint64_t MyEpoch) {
  // One shard sequencer: drains the shard's routed stream into its
  // DispatchOnly driver. Accesses dispatch in whole runs (batched,
  // devirtualized where registered); each sync event first waits at the
  // spine barrier until every sibling has finished the preceding sync
  // ordinal. The barrier is *pacing*, not precision: each variable's
  // state lives in exactly one shard and every clone sees the full sync
  // spine in order, so warnings would be identical without it — but it
  // bounds cross-shard skew to one sync era (limiting how far one shard's
  // shadow state can run ahead) and gives the supervisor an unambiguous
  // signal (a worker frozen *outside* the barrier is stalled; one waiting
  // inside it is a sibling's victim).
  OnlineDriver &D = *S.Driver;
  const FaultPlan *Faults = Options.Faults;
  // Mirrors the primary driver's own probe gate (OnlineDriver.cpp): with
  // no budget and no tracker nobody reads ShadowPublished; without
  // governed clones nobody reads the governor publishes.
  const bool ShadowProbeNeeded = Options.Degrade.ShadowBudgetBytes != 0 ||
                                 Options.Degrade.Tracker != nullptr;
  const bool GovernorProbeNeeded = ShardMemoryGoverned;
  for (;;) {
    if (S.Epoch.load(std::memory_order_acquire) != MyEpoch)
      break;
    if (S.BatchPos == S.BatchLen) {
      // Refill. Tool::shadowBytes() walks the clone's whole shadow (it is
      // O(vars) for every shipped detector), so publish it only when the
      // router actually probes budgets, and then only every 16th refill —
      // roughly the primary driver's own BudgetCheckEveryOps cadence.
      if ((ShadowProbeNeeded || GovernorProbeNeeded) &&
          (S.RefillCount++ & 15u) == 0) {
        if (ShadowProbeNeeded)
          S.ShadowPublished.store(S.Clone->shadowBytes(),
                                  std::memory_order_relaxed);
        if (GovernorProbeNeeded) {
          const ShadowGovernorStats GS = S.Clone->shadowGovernorStats();
          S.TripsPublished.store(GS.BudgetTrips, std::memory_order_relaxed);
          S.DeniedPublished.store(GS.AllocDenied, std::memory_order_relaxed);
        }
      }
      // Zero-copy refill: dispatch straight out of the ring (peekRun) and
      // release slots only as they are consumed. Skipping the copy keeps
      // a second 16-bytes-per-event load+store — and a batch buffer the
      // size of L1 — off the worker's hot path, and makes restart-resume
      // automatic: whatever this incarnation never releases is still in
      // the ring for its successor.
      S.BatchPos = 0;
      S.BatchLen = S.Ring.peekRun(S.BatchPtr);
      if (S.BatchLen > S.BatchCap)
        S.BatchLen = S.BatchCap;
      if (S.BatchLen == 0) {
        if (RouterDone.load(std::memory_order_acquire) && S.Ring.empty())
          break;
        // Idle backoff: a yield-spinning worker is harmless with spare
        // cores but on an oversubscribed host N spinners steal the very
        // quanta the producers and router need to refill this ring.
        if (++S.EmptyPolls < 64)
          std::this_thread::yield();
        else
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      S.EmptyPolls = 0;
    }
    if (Halted.load(std::memory_order_acquire)) {
      // Routed before the halt landed; discarded but counted.
      const uint64_t Rest = S.BatchLen - S.BatchPos;
      S.Discards.fetch_add(Rest, std::memory_order_relaxed);
      S.Drained.fetch_add(Rest, std::memory_order_release);
      S.Ring.release(Rest);
      S.BatchPos = S.BatchLen;
      continue;
    }
    const OnlineEvent &E = S.BatchPtr[S.BatchPos];
    // Injected shard wedge (FaultPlan): park *before* dispatching,
    // holding BatchPos, until the supervisor abandons this incarnation —
    // the successor resumes at the exact wedge point. Entering the park
    // consumes the armed stall, so the successor's re-check passes.
    if (Faults && Faults->takeShardStall(S.Index, E.Seq)) {
      while (S.Epoch.load(std::memory_order_acquire) == MyEpoch &&
             !Halted.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    if (E.Kind == OpKind::Read || E.Kind == OpKind::Write) {
      // Access run: everything up to the next sync event (or an armed
      // injected stall, so the park above sees it exactly).
      size_t End = S.BatchPos + 1;
      while (End != S.BatchLen) {
        const OnlineEvent &A = S.BatchPtr[End];
        if (A.Kind != OpKind::Read && A.Kind != OpKind::Write)
          break;
        if (Faults && Faults->shardStallHits(S.Index, A.Seq))
          break;
        ++End;
      }
      const size_t Len = End - S.BatchPos;
      if (!D.dispatchRun(&S.BatchPtr[S.BatchPos], Len))
        Halted.store(true, std::memory_order_release);
      S.BatchPos = End;
      S.Drained.fetch_add(Len, std::memory_order_release);
      S.Ring.release(Len);
      continue;
    }
    // Sync event: the cross-shard spine barrier. Ordinal K is implied by
    // position — every shard receives the same sync subsequence in the
    // same order.
    const uint64_t K = S.SyncSeen + 1;
    S.AtBarrier.store(true, std::memory_order_release);
    bool Bail = false;
    for (;;) {
      bool AllDone = true;
      for (const std::unique_ptr<Shard> &Other : ShardSet)
        if (Other->SyncDone.load(std::memory_order_acquire) + 1 < K) {
          AllDone = false;
          break;
        }
      if (AllDone)
        break;
      if (S.Epoch.load(std::memory_order_acquire) != MyEpoch ||
          Halted.load(std::memory_order_acquire) ||
          SequencerGaveUp.load(std::memory_order_acquire)) {
        Bail = true;
        break;
      }
      std::this_thread::yield();
    }
    S.AtBarrier.store(false, std::memory_order_release);
    if (Bail)
      continue; // the loop top turns epoch/halt into exit/discard
    if (!D.dispatchRun(&S.BatchPtr[S.BatchPos], 1))
      Halted.store(true, std::memory_order_release);
    ++S.BatchPos;
    S.SyncSeen = K;
    S.SyncDone.store(K, std::memory_order_release);
    S.Drained.fetch_add(1, std::memory_order_release);
    S.Ring.release(1);
  }
  std::lock_guard<std::mutex> Guard(ClocksMu);
  SequencerClocks += clockStats();
}

void Engine::superviseNote(Severity Sev, StatusCode Code,
                           std::string Message) {
  std::lock_guard<std::mutex> Guard(SupMu);
  SupDiags.push_back({Code, Sev, 0, NoOpIndex, std::move(Message)});
}

void Engine::handleStall(uint64_t Watermark) {
  ++StallsSeen;
  superviseNote(
      Severity::Warning, StatusCode::Stalled,
      "sequencer stalled at watermark " + std::to_string(Watermark) +
          " past the " + std::to_string(Options.Supervise.StallDeadlineMs) +
          " ms deadline; unparking producers into drop-and-count mode");
  // Unpark blocked producers: parked accesses are shed and counted, sync
  // events keep waiting for the restarted sequencer to drain.
  DropAccesses.store(true, std::memory_order_release);
  if (StallsSeen >= 2 && Options.Degrade.Enabled) {
    PendingDegrade.fetch_add(1, std::memory_order_relaxed);
    superviseNote(Severity::Warning, StatusCode::Stalled,
                  "repeated sequencer stall: requested ladder downgrade");
  }
  if (Restarts.load(std::memory_order_relaxed) >=
      Options.Supervise.MaxRestarts) {
    // The true last resort: stop pretending the sequencer will recover.
    // The epoch bump releases a cooperatively-wedged thread (an injected
    // stall); a thread wedged inside a tool handler cannot be recovered
    // portably and would block this join — that failure mode is
    // documented, not handled.
    SequencerEpoch.fetch_add(1, std::memory_order_acq_rel);
    if (SequencerThread.joinable())
      SequencerThread.join();
    superviseNote(Severity::Error, StatusCode::Stalled,
                  "sequencer unrecoverable after " +
                      std::to_string(
                          Restarts.load(std::memory_order_relaxed)) +
                      " restart(s); detection halted");
    SequencerGaveUp.store(true, std::memory_order_release);
    // Release: the diagnostics above are visible before the flag (see
    // the Halted declaration).
    Halted.store(true, std::memory_order_release);
    return;
  }
  restartSequencerLocked();
}

void Engine::restartSequencerLocked() {
  // Abandon the wedged thread: it notices the epoch bump between batches
  // (or inside an injected stall loop) and exits. The successor resumes
  // from the published watermark; the predecessor publishes only after
  // completing a batch, so no event is lost or delivered twice.
  uint64_t NewEpoch =
      SequencerEpoch.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (SequencerThread.joinable())
    SequencerThread.join();
  Restarts.fetch_add(1, std::memory_order_relaxed);
  superviseNote(Severity::Note, StatusCode::Stalled, "sequencer restarted");
  SequencerThread = std::thread([this, NewEpoch] { mergeLoop(NewEpoch); });
}

void Engine::handleShardStall(Shard &S) {
  // The per-shard mirror of handleStall: a worker whose drain watermark
  // froze with routed events pending, outside the spine barrier, past the
  // deadline. Crucially only *this* shard is recycled — its siblings (and
  // the router, which may be parked on this shard's full ring) never stop
  // detecting.
  superviseNote(
      Severity::Warning, StatusCode::Stalled,
      "shard " + std::to_string(S.Index) +
          " sequencer stalled at drain watermark " +
          std::to_string(S.Drained.load(std::memory_order_relaxed)) +
          " past the " + std::to_string(Options.Supervise.StallDeadlineMs) +
          " ms deadline; restarting");
  if (S.Restarts.load(std::memory_order_relaxed) >=
      Options.Supervise.MaxRestarts) {
    superviseNote(
        Severity::Error, StatusCode::Stalled,
        "shard " + std::to_string(S.Index) + " sequencer unrecoverable after " +
            std::to_string(S.Restarts.load(std::memory_order_relaxed)) +
            " restart(s); detection halted");
    SequencerGaveUp.store(true, std::memory_order_release);
    Halted.store(true, std::memory_order_release);
    // The halt flag (plus the epoch bump, for a cooperatively-wedged
    // loop) makes the worker exit; join so finish() finds a quiet shard.
    S.Epoch.fetch_add(1, std::memory_order_acq_rel);
    if (S.Worker.joinable())
      S.Worker.join();
    return;
  }
  uint64_t NewEpoch = S.Epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (S.Worker.joinable())
    S.Worker.join();
  S.Restarts.fetch_add(1, std::memory_order_relaxed);
  superviseNote(Severity::Note, StatusCode::Stalled,
                "shard " + std::to_string(S.Index) + " sequencer restarted");
  Shard *P = &S;
  S.Worker = std::thread([this, P, NewEpoch] { shardLoop(*P, NewEpoch); });
}

void Engine::supervisorLoop() {
  const SupervisorOptions &S = Options.Supervise;
  uint64_t LastMark = NextSeq.load(std::memory_order_acquire);
  uint64_t LastDeadlineDrops = DeadlineDrops.load(std::memory_order_relaxed);
  unsigned StalledMs = 0;
  unsigned PressureTicks = 0;
  std::vector<uint64_t> ShardMarks(ShardSet.size(), 0);
  std::vector<unsigned> ShardStalledMs(ShardSet.size(), 0);
  for (;;) {
    {
      // A timed wait, not a sleep: finish() clears SupervisorRun and
      // notifies, so it never waits out the rest of a tick.
      std::unique_lock<std::mutex> Lock(SupervisorMu);
      if (SupervisorWake.wait_for(Lock, std::chrono::milliseconds(S.TickMs),
                                  [this] { return !SupervisorRun; }))
        return;
    }
    uint64_t Mark = NextSeq.load(std::memory_order_acquire);
    uint64_t Tickets = Seq.load(std::memory_order_acquire);
    if (Tickets > Mark)
      noteMaxBacklog(Tickets - Mark);

    // --- stall detection: outstanding tickets, frozen watermark. A
    // router parked on a full shard ring also freezes the watermark, but
    // the cure is restarting the *shard* (the scan below) — restarting
    // the router would hang this thread joining a parked router.
    if (Mark != LastMark) {
      StalledMs = 0;
      // The sequencer is draining again: leave drop-and-count mode.
      if (DropAccesses.load(std::memory_order_relaxed))
        DropAccesses.store(false, std::memory_order_release);
    } else if (Tickets != Mark &&
               !Halted.load(std::memory_order_acquire) &&
               !SequencerGaveUp.load(std::memory_order_acquire) &&
               !RouterBlockedOnShard.load(std::memory_order_acquire)) {
      StalledMs += S.TickMs;
      if (StalledMs >= S.StallDeadlineMs) {
        handleStall(Mark);
        StalledMs = 0;
      }
    } else {
      StalledMs = 0;
    }

    // --- per-shard stall detection (Shards > 1): routed events pending,
    // drain watermark frozen, and not parked at the spine barrier (a
    // barrier wait is a sibling's fault; the scan catches the sibling).
    for (size_t I = 0; I != ShardSet.size(); ++I) {
      Shard &Sh = *ShardSet[I];
      uint64_t Drained = Sh.Drained.load(std::memory_order_acquire);
      uint64_t Routed = Sh.Routed.load(std::memory_order_acquire);
      bool Idle = Routed <= Drained;
      if (Drained != ShardMarks[I] || Idle ||
          Sh.AtBarrier.load(std::memory_order_acquire) ||
          Halted.load(std::memory_order_acquire) ||
          SequencerGaveUp.load(std::memory_order_acquire)) {
        ShardStalledMs[I] = 0;
      } else {
        ShardStalledMs[I] += S.TickMs;
        if (ShardStalledMs[I] >= S.StallDeadlineMs) {
          handleShardStall(Sh);
          ShardStalledMs[I] = 0;
        }
      }
      ShardMarks[I] = Drained;
    }

    // --- pressure detection: producers continuously parked or shedding
    // accesses at the park deadline → the consumer is too slow for the
    // event rate; request one rung of load shedding per sustained window.
    uint64_t Drops = DeadlineDrops.load(std::memory_order_relaxed);
    bool Pressure = ProducersParked.load(std::memory_order_relaxed) > 0 ||
                    Drops != LastDeadlineDrops;
    if (Pressure && !Halted.load(std::memory_order_relaxed)) {
      if (++PressureTicks >= S.PressureTicksToDegrade) {
        if (Options.Degrade.Enabled) {
          PendingDegrade.fetch_add(1, std::memory_order_relaxed);
          superviseNote(Severity::Warning, StatusCode::Stalled,
                        "sustained ring pressure: requested ladder "
                        "downgrade");
        }
        PressureTicks = 0;
      }
    } else {
      PressureTicks = 0;
    }
    LastDeadlineDrops = Drops;
    LastMark = Mark;
  }
}

OnlineReport Engine::finish() {
  assert(!Finished && "finish() is callable once");
  Finished = true;

  // Drain: every ticket handed out has been merged (or discarded after a
  // halt). Requires all runtime Threads to be joined by the caller. When
  // the watchdog declared the sequencer dead, outstanding tickets will
  // never merge — skip the wait and report what happened.
  while (NextSeq.load(std::memory_order_acquire) <
             Seq.load(std::memory_order_acquire) &&
         !SequencerGaveUp.load(std::memory_order_acquire))
    std::this_thread::yield();
  // Sharded: the router has routed everything (the watermark is published
  // only after a batch is fully routed); now wait for every worker to
  // drain its routed stream too. A halted worker still advances its drain
  // watermark by discard-and-count, so this terminates unless a worker is
  // truly gone (gave-up) — then the leftovers are counted below.
  for (const std::unique_ptr<Shard> &S : ShardSet)
    while (S->Drained.load(std::memory_order_acquire) <
               S->Routed.load(std::memory_order_acquire) &&
           !SequencerGaveUp.load(std::memory_order_acquire))
      std::this_thread::yield();
  Running.store(false, std::memory_order_release);
  // Stop the supervisor first so no restart can race the joins below.
  {
    std::lock_guard<std::mutex> Guard(SupervisorMu);
    SupervisorRun = false;
  }
  SupervisorWake.notify_one();
  if (SupervisorThread.joinable())
    SupervisorThread.join();
  if (SequencerThread.joinable())
    SequencerThread.join();
  if (NumShards > 1) {
    // Only after the router is joined is RouterDone true in the sense the
    // workers rely on: no more pushes, ever.
    RouterDone.store(true, std::memory_order_release);
    for (const std::unique_ptr<Shard> &S : ShardSet)
      if (S->Worker.joinable())
        S->Worker.join();
    for (const std::unique_ptr<Shard> &S : ShardSet)
      S->Driver->finish();
    // Fold the shards back into the primary tool: warnings first, merged
    // in raw-index order so the set AND order match a single-sequencer
    // run byte for byte (each variable lives in exactly one shard, so the
    // one-warning-per-variable policy cannot collide across clones), then
    // the instrumentation counters via the ShardableTool hook.
    std::vector<RaceWarning> Merged;
    for (const std::unique_ptr<Shard> &S : ShardSet)
      for (const RaceWarning &W : S->Clone->warnings())
        Merged.push_back(W);
    std::stable_sort(Merged.begin(), Merged.end(),
                     [](const RaceWarning &A, const RaceWarning &B) {
                       return A.OpIndex != B.OpIndex ? A.OpIndex < B.OpIndex
                                                     : A.Var < B.Var;
                     });
    Checker.adoptWarnings(Merged);
    auto &Shardable = dynamic_cast<ShardableTool &>(Checker);
    for (const std::unique_ptr<Shard> &S : ShardSet)
      Shardable.mergeShard(*S->Clone);
  }
  Driver.finish();

  Report.Seconds = Watch.seconds();
  Report.Clocks = SequencerClocks;
  Report.EventsCaptured = Driver.rawOps();
  Report.EventsDispatched = Driver.dispatched();
  Report.NumWarnings = Checker.warnings().size();
  Report.Halted =
      Driver.halted() || Halted.load(std::memory_order_acquire);
  Report.Diags = Driver.diags();
  {
    std::lock_guard<std::mutex> Guard(SupMu);
    for (Diagnostic &D : SupDiags)
      Report.Diags.push_back(std::move(D));
    SupDiags.clear();
  }
  Report.DegradeRung = Driver.rung();
  Report.Degradations = Driver.degradations();
  Report.AccessesShed = Driver.accessesDropped();
  Report.SequencerRestarts = Restarts.load(std::memory_order_relaxed);
  Report.MaxBacklog = MaxBacklogSeen.load(std::memory_order_relaxed);
  Report.DroppedPostHalt = DiscardedPostHalt;
  Report.Shards = NumShards;
  for (const std::unique_ptr<Shard> &S : ShardSet) {
    Report.ShardRestarts += S->Restarts.load(std::memory_order_relaxed);
    Report.Halted = Report.Halted || S->Driver->halted();
    for (const Diagnostic &D : S->Driver->diags())
      Report.Diags.push_back(D);
    // Worker-side discards, plus anything still sitting in a dead
    // worker's ring (gave-up): counted, never silent.
    Report.DroppedPostHalt +=
        S->Discards.load(std::memory_order_relaxed) +
        (S->Routed.load(std::memory_order_relaxed) -
         S->Drained.load(std::memory_order_relaxed));
  }
  if (SequencerGaveUp.load(std::memory_order_acquire))
    // No sequencer will ever merge the outstanding tickets; count them as
    // dropped rather than pretending the stream simply ended.
    Report.DroppedPostHalt += Seq.load(std::memory_order_acquire) -
                              NextSeq.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> Guard(ChannelMu);
    for (const std::unique_ptr<Channel> &Ch : Channels) {
      uint64_t PH = Ch->DroppedPostHalt.load(std::memory_order_relaxed);
      uint64_t OV = Ch->DroppedOverload.load(std::memory_order_relaxed);
      uint64_t PK = Ch->Parks.load(std::memory_order_relaxed);
      Report.DroppedPostHalt += PH;
      Report.DroppedOverload += OV;
      Report.ParkEpisodes += PK;
      if ((PH | OV | PK) != 0)
        Report.PerThreadDrops.push_back({Ch->Id, PH, OV, PK});
    }
    // Lifecycle telemetry: with recycling, SlotsAllocated is the width
    // the tool actually paid for (= Interner's dense-id high-water mark),
    // bounded by max-live rather than total threads forked.
    Report.SlotsAllocated = static_cast<unsigned>(Channels.size());
    Report.PeakLiveSlots = PeakLiveSlots;
    Report.ThreadsRecycled = ThreadsRecycled;
  }
  Report.ForksRejected = ForksRejected.load(std::memory_order_relaxed);
  Report.UntrackedEvents = UntrackedEvents.load(std::memory_order_relaxed);
  Report.EventsElided = ElidedEvents.load(std::memory_order_relaxed);
  {
    // Memory-governance telemetry. Sharded: sum the clones (workers are
    // joined, so reading them is safe); the primary's table saw no
    // accesses and its reset-seeded high water would only distort the
    // sum. High waters add across shards — a conservative (never
    // understated) peak, since the shards' peaks need not coincide.
    ShadowGovernorStats GS;
    if (NumShards > 1)
      for (const std::unique_ptr<Shard> &S : ShardSet)
        GS += S->Clone->shadowGovernorStats();
    else
      GS = Checker.shadowGovernorStats();
    Report.ShadowBytesHighWater = GS.ShadowBytesHighWater;
    Report.PagesCompressed = GS.PagesCompressed;
    Report.PagesSummarized = GS.PagesSummarized;
    Report.BudgetTrips = GS.BudgetTrips;
  }
  if (Report.ForksRejected != 0)
    Report.Diags.push_back(
        {StatusCode::ResourceExhausted, Severity::Warning, 0, NoOpIndex,
         std::to_string(Report.ForksRejected) +
             " thread(s) ran untracked after slot-table exhaustion; " +
             std::to_string(Report.UntrackedEvents) +
             " of their event(s) dropped (counted, never silent)"});
  if (Report.DroppedPostHalt != 0)
    // One-shot: a single diagnostic however many events were lost; the
    // per-thread accounting lives in the counters above.
    Report.Diags.push_back(
        {StatusCode::Cancelled, Severity::Warning, 0, NoOpIndex,
         std::to_string(Report.DroppedPostHalt) +
             " event(s) dropped after detection halted (per-thread counts "
             "in the report)"});

  if (SegWriter) {
    (void)SegWriter->finish();
    Report.CaptureSegments = SegWriter->segmentsSealed();
    for (const Diagnostic &D : SegWriter->diags())
      Report.Diags.push_back(D);
  }
  if (MemCapture && Options.ValidateCapture) {
    TraceValidatorOptions VOpts;
    // Shedding can strip every access of a thread while its fork/join
    // spine is still delivered, which rule (4) would flag; that is a
    // legitimate degraded capture, not a malformed one.
    VOpts.RequireThreadOps =
        Report.AccessesShed == 0 && Report.DroppedOverload == 0;
    // Recycled slots legally re-fork a joined tid; the validator knows
    // the reincarnation protocol through this option.
    VOpts.AllowTidReuse = Options.RecycleThreadSlots;
    for (Diagnostic &D : validateTrace(Capture, VOpts))
      Report.Diags.push_back(std::move(D));
  }
  if (!Options.CapturePath.empty() && !SegWriter) {
    if (Status St = saveTraceFile(Options.CapturePath, Capture); !St.ok()) {
      Diagnostic D;
      D.Code = St.code();
      D.Sev = Severity::Error;
      D.Message = "flight recorder: " + St.message();
      Report.Diags.push_back(std::move(D));
    }
  }
  if (Options.KeepCapture)
    Report.Captured = std::move(Capture);

  if (Binding.E == this)
    Binding = {};
  CurrentEngine.store(nullptr, std::memory_order_release);
  return std::move(Report);
}
