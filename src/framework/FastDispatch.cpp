//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "framework/FastDispatch.h"

#include <vector>

namespace ft {

namespace {

/// Filled by FastDispatchRegistrar static initializers (single-threaded,
/// before main) and only read afterwards, so plain storage suffices.
std::vector<FastDispatchEntry> &fastDispatchRegistry() {
  static std::vector<FastDispatchEntry> Registry;
  return Registry;
}

} // namespace

void registerFastDispatch(FastDispatchEntry Entry) {
  fastDispatchRegistry().push_back(Entry);
}

const FastDispatchEntry *resolveFastDispatch(const Tool &Checker) {
  for (const FastDispatchEntry &Entry : fastDispatchRegistry())
    if (*Entry.Type == typeid(Checker))
      return &Entry;
  return nullptr;
}

} // namespace ft
