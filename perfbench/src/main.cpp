//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ftbench: runs one workload of the detector benchmark and prints its
/// metrics. Usage:
///
///   ftbench --workload offline_table1|online_mix|online_sync
///           --seed N --seconds S --trace 0|1 [--out DIR]
///
/// With --trace 0 it reports the end-to-end metrics from an untraced run;
/// with --trace 1 the per-layer metrics from a run that records spans.
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics. With --out, the run also
/// writes a results file (metrics plus host stamps) and, when traced, its
/// spans into DIR. The exit code is 1 when a correctness check failed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace ftbench;

namespace {

const std::vector<std::pair<std::string, std::string>> EndToEnd = {
    {"setup_s", "s"},
    {"events_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"ops_ok_frac", "frac"}};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "ftbench: %s\nusage: ftbench --workload "
               "offline_table1|online_mix|online_sync --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               Why);
  std::exit(2);
}

RunOptions parseArgs(int Argc, char **Argv) {
  RunOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      O.Workload = V;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(V, &End, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(V, &End);
    else if (Flag == "--trace")
      O.Traced = std::strtol(V, &End, 10) != 0;
    else if (Flag == "--out")
      O.OutDir = V;
    else
      usage(("unknown flag " + Flag).c_str());
    if (End && *End)
      usage(("bad value for " + Flag).c_str());
  }
  if (O.Workload.empty())
    usage("--workload is required");
  if (!(O.Seconds > 0) || O.Seconds > 600)
    usage("--seconds must be in (0, 600]");
  return O;
}

std::string affinityList() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return "unknown";
  std::string Out;
  for (int C = 0; C < CPU_SETSIZE; ++C) {
    if (!CPU_ISSET(C, &Set))
      continue;
    int Last = C;
    while (Last + 1 < CPU_SETSIZE && CPU_ISSET(Last + 1, &Set))
      ++Last;
    if (!Out.empty())
      Out += ",";
    Out += std::to_string(C);
    if (Last != C)
      Out += "-" + std::to_string(Last);
    C = Last;
  }
  return Out;
}

std::string envOr(const char *Name, const char *Default) {
  const char *V = std::getenv(Name);
  return V && *V ? V : Default;
}

/// JSON string escaping for the few free-text fields.
std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(
    const std::vector<std::pair<std::string, Metric>> &Metrics) {
  std::string Out = "{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Out += ", ";
    Out += quote(Metrics[I].first) + ": {\"value\": " +
           number(Metrics[I].second.Value) +
           ", \"unit\": " + quote(Metrics[I].second.Unit) + "}";
  }
  return Out + "}";
}

std::string stringList(const std::vector<std::string> &L) {
  std::string Out = "[";
  for (size_t I = 0; I != L.size(); ++I)
    Out += (I ? ", " : "") + quote(L[I]);
  return Out + "]";
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Options = parseArgs(Argc, Argv);
  SpanRecorder Spans;
  Spans.Enabled = Options.Traced;

  RunResult Result;
  if (Options.Workload == "offline_table1")
    Result = runOfflineTable1(Options, Spans);
  else if (Options.Workload == "online_mix")
    Result = runOnline(Options, Spans, /*SyncHeavy=*/false);
  else if (Options.Workload == "online_sync")
    Result = runOnline(Options, Spans, /*SyncHeavy=*/true);
  else
    usage(("unknown workload " + Options.Workload).c_str());

  // Keep exactly the metrics this mode reports, in declaration order.
  const auto &Wanted = Options.Traced ? perLayerMetrics() : EndToEnd;
  std::vector<std::pair<std::string, Metric>> Metrics;
  for (const auto &[Name, Unit] : Wanted) {
    const Metric *Found = nullptr;
    for (const auto &M : Result.Metrics)
      if (M.first == Name)
        Found = &M.second;
    if (!Found) {
      Result.error("metric " + Name + " was not measured");
      continue;
    }
    if (!std::isfinite(Found->Value) || Found->Unit != Unit) {
      Result.error("metric " + Name + " is not finite or not in " + Unit);
      continue;
    }
    Metrics.push_back({Name, *Found});
  }

  std::string Self;
  for (const auto &[Layer, Ns] : Spans.selfNsByLayer())
    Self += (Self.empty() ? "" : ", ") + quote(Layer) + ": " +
            number(double(Ns) * 1e-9);
  const std::string Host =
      "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"affinity\": " + quote(affinityList()) +
      ", \"compiler\": " +
#if defined(__clang__)
      quote(std::string("clang ") + __clang_version__) +
#elif defined(__GNUC__)
      quote(std::string("gcc ") + __VERSION__) +
#else
      quote("unknown") +
#endif
      ", \"build_type\": " + quote(FTBENCH_BUILD_TYPE) +
      ", \"cxx_flags\": " + quote(FTBENCH_CXX_FLAGS) +
      ", \"git_commit\": " + quote(envOr("FTBENCH_COMMIT", "unknown")) +
      ", \"source_digest\": " +
      quote(envOr("FTBENCH_SOURCE_DIGEST", "unknown")) + "}";

  for (const std::string &N : Result.Notes)
    std::printf("# %s\n", N.c_str());
  std::printf("# host %s\n", Host.c_str());
  if (!Result.NotApplicable.empty())
    std::printf("# measured on the online_mix reference session (the layer "
                "does no work in %s): %s\n",
                Options.Workload.c_str(),
                stringList(Result.NotApplicable).c_str());
  if (!Spans.spans().empty())
    std::printf("# span self time by layer (s): {%s}\n", Self.c_str());
  for (const std::string &E : Result.Errors)
    std::printf("# CHECK FAILED: %s\n", E.c_str());

  const bool Correct = Result.Errors.empty();
  if (!Options.OutDir.empty()) {
    std::error_code Ignored;
    std::filesystem::create_directories(Options.OutDir, Ignored);
    const std::string Stem = Options.OutDir + "/" + Options.Workload +
                             "-seed" + std::to_string(Options.Seed) +
                             "-trace" + (Options.Traced ? "1" : "0");
    bool Wrote = !Options.Traced || Spans.write(Stem + ".spans.json");
    if (std::FILE *F = std::fopen((Stem + ".json").c_str(), "w")) {
      std::fprintf(
          F,
          "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
          "\"traced\": %s,\n \"host\": %s,\n \"correct\": %s, "
          "\"errors\": %s,\n \"not_applicable\": %s,\n \"notes\": %s,\n "
          "\"span_self_s\": {%s},\n \"metrics\": %s}\n",
          quote(Options.Workload).c_str(),
          static_cast<unsigned long long>(Options.Seed),
          number(Options.Seconds).c_str(), Options.Traced ? "true" : "false",
          Host.c_str(), Correct ? "true" : "false",
          stringList(Result.Errors).c_str(),
          stringList(Result.NotApplicable).c_str(),
          stringList(Result.Notes).c_str(), Self.c_str(),
          metricsJson(Metrics).c_str());
      std::fclose(F);
    } else {
      Wrote = false;
    }
    if (!Wrote)
      std::fprintf(stderr, "ftbench: could not write results to %s\n",
                   Options.OutDir.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Result.Attempted),
              static_cast<unsigned long long>(Result.Failed),
              metricsJson(Metrics).c_str());
  return Correct ? 0 : 1;
}
