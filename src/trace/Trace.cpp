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
  uint32_t SetIndex = BarrierSets.size();
  // Reuse an identical existing set if present (barriers repeat many times).
  for (uint32_t I = 0; I != BarrierSets.size(); ++I) {
    if (BarrierSets[I] == Sorted) {
      SetIndex = I;
      break;
    }
  }
  if (SetIndex == BarrierSets.size())
    BarrierSets.push_back(Sorted);
  Operation Op(OpKind::Barrier, Sorted.front(), SetIndex);
  Ops.push_back(Op);
  return Op;
}

void Trace::clear() {
  Ops.clear();
  BarrierSets.clear();
  NumThreads = 1;
  NumVars = 0;
  NumLocks = 0;
  NumVolatiles = 0;
}
