//===----------------------------------------------------------------------===//
//
// Experiment E10 (extension) — detector cost as the thread count grows.
//
// The paper's complexity argument: a VC-based detector pays O(n) time
// per first-in-epoch access while FastTrack pays O(1). The Java
// benchmarks cap at 11 threads, compressing the visible gap; this
// harness sweeps the thread count directly, and exercises the 64-bit
// epoch variant (Section 4) beyond the 8-bit tid space.
//
// Expected: Empty/Eraser/FastTrack slowdowns stay roughly flat as
// threads grow; DJIT+ and especially BasicVC climb with n.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FastTrack.h"
#include "detectors/BasicVC.h"
#include "detectors/DjitPlus.h"
#include "detectors/EmptyTool.h"
#include "detectors/Eraser.h"
#include "support/Table.h"
#include "trace/RandomTrace.h"

#include <cstdio>

using namespace ft;
using namespace ft::bench;

int main(int argc, char **argv) {
  BenchReport Report("bench_thread_scaling", argc, argv);
  banner("Thread scaling: per-access cost vs thread count");

  Table Out;
  Out.addHeader({"Threads", "Events", "Eraser", "BasicVC", "DJIT+",
                 "FastTrack", "FastTrack64"});

  const unsigned ThreadCounts[] = {4, 16, 64, 192, 400};
  for (unsigned Threads : ThreadCounts) {
    RandomTraceConfig Config;
    Config.Seed = 99;
    Config.NumThreads = Threads;
    Config.NumVars = Threads * 4 + 64;
    Config.NumLocks = 8;
    Config.NumVolatiles = 2;
    // Keep total events roughly constant across rows.
    Config.OpsPerThread = static_cast<unsigned>(
        (400000.0 * sizeFactor()) / Threads / 5);
    Config.ChaosProbability = 0.002;
    Config.BarrierProbability = 0.0;
    Config.MaxAccessBurst = 4;
    Trace T = generateRandomTrace(Config);

    EmptyTool Baseline;
    double EmptySeconds = timedReplay(T, Baseline).Seconds;
    const std::string ThreadCount = std::to_string(Threads);
    auto slowdownOf = [&](Tool &Checker, const char *Name) {
      double Seconds = timedReplay(T, Checker).Seconds;
      double Ratio = EmptySeconds > 0 ? Seconds / EmptySeconds : 0;
      Report.metric("t" + ThreadCount + "_" + Name + "_slowdown", Ratio, "x");
      return slowdown(Ratio);
    };

    std::vector<std::string> Row = {std::to_string(Threads),
                                    withCommas(T.size())};
    Eraser E;
    Row.push_back(slowdownOf(E, "eraser"));
    BasicVC Basic;
    Row.push_back(slowdownOf(Basic, "basicvc"));
    DjitPlus Djit;
    Row.push_back(slowdownOf(Djit, "djit+"));
    if (Threads <= 250) {
      FastTrack Ft;
      Row.push_back(slowdownOf(Ft, "fasttrack"));
    } else {
      Row.push_back("-"); // 8-bit tids exhausted: FastTrack64 territory
    }
    FastTrack64 Ft64;
    Row.push_back(slowdownOf(Ft64, "fasttrack64"));
    Out.addRow(Row);
  }

  std::fputs(Out.render().c_str(), stdout);
  std::printf("\nExpected shape: BasicVC and DJIT+ grow with the thread "
              "count (O(n) VC comparisons);\nFastTrack's epoch fast paths "
              "stay flat, and FastTrack64 extends past 256 threads with "
              "no penalty at small n.\n");
  return Report.write() ? 0 : 1;
}
