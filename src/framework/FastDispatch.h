//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast-dispatch registry: devirtualized access dispatch for both the
/// offline replay loop (replay()) and the online access-run loop
/// (OnlineDriver::dispatchRun), one entry per concrete tool type.
///
/// Dispatching each access through a virtual onRead/onWrite costs an
/// indirect call per event and hides the tool's same-epoch fast path from
/// the inliner. A tool's own translation unit therefore registers, with
/// one FT_REGISTER_FAST_DISPATCH line, the two loops instantiated against
/// its concrete type: replayWithTool<ToolT> offline and
/// fastDispatchRun<ToolT> online. Their qualified calls pin the
/// overrides, so FastTrack's [FT READ/WRITE SAME EPOCH] paths inline
/// straight into the loop. replay() and OnlineDriver resolve the entry
/// once per run by *exact* dynamic type: a subclass that overrides the
/// handlers again fails the typeid match and safely falls back to
/// virtual dispatch. Results are identical either way.
///
/// Layering note: this framework header includes runtime/EventRing.h for
/// the OnlineEvent wire format. EventRing.h is header-only and depends
/// only on trace/, so no link-time framework → runtime edge is created.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_FRAMEWORK_FASTDISPATCH_H
#define FASTTRACK_FRAMEWORK_FASTDISPATCH_H

#include "framework/Replay.h"
#include "runtime/EventRing.h"

#include <typeinfo>

namespace ft {

/// One registry entry: the exact dynamic type it serves plus the two
/// devirtualized loops for that type.
struct FastDispatchEntry {
  const std::type_info *Type;
  /// replayWithTool<ToolT> behind a type-erased signature.
  ReplayResult (*Replay)(const Trace &T, Tool &Checker,
                         const ReplayOptions &Options);
  /// Dispatches a run of admitted *access* events (Read/Write only); each
  /// event's Seq carries the raw op index assigned at admission. Returns
  /// the number of accesses whose handler returned the pass flag.
  uint64_t (*DispatchRun)(Tool &Checker, const runtime::OnlineEvent *Run,
                          size_t N);
};

/// Adds \p Entry to the registry. Called from static initializers in each
/// tool's translation unit, so a linked-in tool is automatically
/// fast-pathed and an absent one costs nothing.
void registerFastDispatch(FastDispatchEntry Entry);

/// Returns the entry registered for \p Checker's exact dynamic type, or
/// nullptr when none matches (callers then dispatch virtually).
const FastDispatchEntry *resolveFastDispatch(const Tool &Checker);

template <typename ToolT>
ReplayResult fastReplay(const Trace &T, Tool &Checker,
                        const ReplayOptions &Options) {
  return replayWithTool(T, static_cast<ToolT &>(Checker), Options);
}

/// The online run loop for concrete tool \p ToolT: qualified calls pin
/// the overrides so the access handlers inline (see replayWithTool).
template <typename ToolT>
uint64_t fastDispatchRun(Tool &Base, const runtime::OnlineEvent *Run,
                         size_t N) {
  ToolT &Checker = static_cast<ToolT &>(Base);
  uint64_t Passed = 0;
  for (size_t I = 0; I != N; ++I) {
    const runtime::OnlineEvent &E = Run[I];
    Passed += E.Kind == OpKind::Read
                  ? Checker.ToolT::onRead(E.Thread, E.Target,
                                          static_cast<size_t>(E.Seq))
                  : Checker.ToolT::onWrite(E.Thread, E.Target,
                                           static_cast<size_t>(E.Seq));
  }
  return Passed;
}

/// Registers one entry at static-initialization time.
struct FastDispatchRegistrar {
  explicit FastDispatchRegistrar(FastDispatchEntry Entry) {
    registerFastDispatch(Entry);
  }
};

#define FT_FAST_DISPATCH_CONCAT2(A, B) A##B
#define FT_FAST_DISPATCH_CONCAT(A, B) FT_FAST_DISPATCH_CONCAT2(A, B)

/// Place in the tool's own .cpp, where the access handlers' bodies are
/// visible to both instantiations.
#define FT_REGISTER_FAST_DISPATCH(ToolT)                                       \
  static ::ft::FastDispatchRegistrar FT_FAST_DISPATCH_CONCAT(                  \
      FtFastDispatchRegistrar_,                                                \
      __LINE__)({&typeid(ToolT), &::ft::fastReplay<ToolT>,                     \
                 &::ft::fastDispatchRun<ToolT>})

} // namespace ft

#endif // FASTTRACK_FRAMEWORK_FASTDISPATCH_H
