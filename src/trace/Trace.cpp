#include "trace/Trace.h"

#include <algorithm>

using namespace ft;

void Trace::appendRun(const Operation *Run, size_t N) {
  for (size_t I = 0; I != N; ++I)
    noteEntities(Run[I]);
  Ops.insert(Ops.end(), Run, Run + N);
}

Operation Trace::appendBarrier(const std::vector<ThreadId> &Threads) {
  assert(!Threads.empty() && "barrier set must be nonempty");
  std::vector<ThreadId> Sorted = Threads;
  std::sort(Sorted.begin(), Sorted.end());
  Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
  for (ThreadId T : Sorted)
    noteThread(T);
  // Reuse an identical existing set if present (barriers repeat many
  // times), looked up by a hash of its sorted ids.
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (ThreadId T : Sorted)
    Hash = (Hash ^ T) * 0x100000001b3ull;
  uint32_t SetIndex = BarrierSets.size();
  auto [It, End] = BarrierIndex.equal_range(Hash);
  for (; It != End; ++It)
    if (BarrierSets[It->second] == Sorted) {
      SetIndex = It->second;
      break;
    }
  if (SetIndex == BarrierSets.size()) {
    BarrierIndex.emplace(Hash, SetIndex);
    BarrierSets.push_back(std::move(Sorted));
  }
  Operation Op(OpKind::Barrier, BarrierSets[SetIndex].front(), SetIndex);
  Ops.push_back(Op);
  return Op;
}

void Trace::clear() {
  Ops.clear();
  BarrierSets.clear();
  BarrierIndex.clear();
  NumThreads = 1;
  NumVars = 0;
  NumLocks = 0;
  NumVolatiles = 0;
}
