//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics and formatting helpers, CPU rotation, the span recorder, and
/// the per-layer metric list.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace ftbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::pair<double, double> quartiles(std::vector<double> V) {
  if (V.empty())
    return {0, 0};
  std::sort(V.begin(), V.end());
  const long Len = static_cast<long>(V.size());
  if (Len < 2)
    return {V[0], V[0]};
  // statistics.quantiles(V, n=4), method="exclusive".
  const long N = 4, M = Len + 1;
  double Q[2];
  for (long I = 1; I <= 3; I += 2) {
    long J = std::clamp(I * M / N, 1L, Len - 1);
    long Delta = I * M - J * N;
    Q[I / 2] = (V[J - 1] * double(N - Delta) + V[J] * double(Delta)) /
               double(N);
  }
  return {Q[0], Q[1]};
}

double iqrFrac(const std::vector<double> &V) {
  double Med = median(V);
  if (Med == 0)
    return 0;
  auto [Q1, Q3] = quartiles(V);
  return (Q3 - Q1) / Med;
}

std::string fmt(const char *Format, double A, double B, double C) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), Format, A, B, C);
  return Buf;
}

std::set<ft::VarId> racySet(const ft::Tool &T) {
  std::set<ft::VarId> Vars;
  for (const ft::RaceWarning &W : T.warnings())
    Vars.insert(W.Var);
  return Vars;
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return; // Cpus stays empty: next() and unpin() do nothing
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Saved))
      Cpus.push_back(C);
}

void CpuRotation::next() {
  // A migration leaves the next piece of work on cold caches; dwelling
  // keeps that cost off most pieces while a run still visits every CPU
  // many times.
  constexpr uint64_t DwellNs = 100'000'000;
  if (Cpus.empty() || (Pinned && nowNs() - LastStepNs < DwellNs))
    return;
  Pinned = true;
  LastStepNs = nowNs();
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Next++ % Cpus.size()], &One);
  sched_setaffinity(0, sizeof(One), &One);
}

void CpuRotation::unpin() {
  if (!Cpus.empty())
    sched_setaffinity(0, sizeof(Saved), &Saved);
  Pinned = false;
}

SpanRecorder::Scope::Scope(SpanRecorder &R, const char *Name,
                           const char *Layer)
    : R(R), Index(-1) {
  if (!R.Enabled)
    return;
  Index = static_cast<int>(R.Spans.size());
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Parent = R.Open.empty() ? -1 : R.Open.back();
  S.Group = R.CurrentGroup;
  R.Spans.push_back(std::move(S));
  R.Open.push_back(Index);
  R.Spans.back().StartNs = nowNs();
}

SpanRecorder::Scope::~Scope() {
  if (Index < 0)
    return;
  R.Spans[Index].EndNs = nowNs();
  R.Open.pop_back();
}

std::map<std::string, uint64_t> SpanRecorder::selfNsByLayer() const {
  // Children of one parent never overlap (spans nest on one thread), so
  // the union of their intervals is the sum of their durations.
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, uint64_t> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    uint64_t Duration = Spans[I].EndNs - Spans[I].StartNs;
    Self[Spans[I].Layer] += Duration - std::min(Duration, ChildNs[I]);
  }
  return Self;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"group\": %llu, \"parent\": %d, \"start_ns\": %llu, "
                 "\"end_ns\": %llu}%s\n",
                 I, S.Name.c_str(), S.Layer.c_str(),
                 static_cast<unsigned long long>(S.Group), S.Parent,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"trace.parse_ns_per_event", "ns"},
      {"trace.text_bytes_per_event", "B"},
      {"trace.validate_ns_per_event", "ns"},
      {"trace.capture_ns_per_event", "ns"},
      {"trace.capture_growth_x", "x"},
      {"framework.replay_empty_ns_per_event", "ns"},
      {"framework.parallel_replay_ns_per_event", "ns"},
      {"core.fasttrack_ns_per_event", "ns"},
      {"core.rules_ns_per_event", "ns"},
      {"core.ft_slowdown_x", "x"},
      {"core.same_epoch_frac", "frac"},
      {"core.fast_path_frac", "frac"},
      {"core.read_share_ops", "count"},
      {"core.write_shared_ops", "count"},
      {"clock.vc_ops", "count"},
      {"clock.vc_allocs", "count"},
      {"shadow.bytes", "B"},
      {"shadow.resident_pages", "count"},
      {"detectors.djitplus_ns_per_event", "ns"},
      {"runtime.native_ns_per_op", "ns"},
      {"runtime.shim_ns_per_event", "ns"},
      {"runtime.pipeline_ns_per_event", "ns"},
      {"runtime.finish_s", "s"},
      {"runtime.park_episodes", "count"},
      {"runtime.max_backlog", "count"},
      {"runtime.degradations", "count"},
      {"runtime.accesses_shed", "count"},
      {"runtime.pinned1_ns_per_event", "ns"},
      {"runtime.unpinned_ns_per_event", "ns"},
      {"bench.ladder_residual_frac", "frac"},
      {"bench.tracing_overhead_frac", "frac"},
  };
  return Names;
}

} // namespace ftbench
