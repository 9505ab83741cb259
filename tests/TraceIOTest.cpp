//===--- TraceIOTest.cpp - trace text format round trips ------------------===//
//
// Round-trip, diagnostic, salvage-mode, and fuzz-robustness tests for the
// trace text format. The parser is the ingestion boundary of the whole
// pipeline, so besides the happy path this suite feeds it truncated,
// corrupt, and adversarial bytes and asserts it always answers with
// structured diagnostics — never a crash, never silent data loss.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"
#include "trace/RandomTrace.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ft;

namespace {

Trace sampleTrace() {
  TraceBuilder B;
  B.fork(0, 1).wr(0, 2).lockedRd(1, 0, 2).volWr(0, 1).volRd(1, 1);
  B.barrier({0, 1}).atomicBegin(1).rd(1, 2).atomicEnd(1).join(0, 1);
  return B.take();
}

/// True when \p Report has at least one diagnostic at \p Sev.
bool hasSeverity(const ParseReport &Report, Severity Sev) {
  for (const Diagnostic &D : Report.Diags)
    if (D.Sev == Sev)
      return true;
  return false;
}

} // namespace

TEST(TraceIO, SerializeProducesOneLinePerOp) {
  Trace T = sampleTrace();
  std::string Text = serializeTrace(T);
  size_t Lines = 0;
  for (char C : Text)
    Lines += C == '\n';
  EXPECT_EQ(Lines, T.size());
}

TEST(TraceIO, RoundTripPreservesOperations) {
  Trace T = sampleTrace();
  std::string Text = serializeTrace(T);
  Trace Parsed;
  ParseReport Report = parseTrace(Text, Parsed);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  EXPECT_EQ(Report.Records, T.size());
  EXPECT_EQ(Report.Skipped, 0u);
  ASSERT_EQ(Parsed.size(), T.size());
  for (size_t I = 0; I != T.size(); ++I) {
    EXPECT_EQ(Parsed[I].Kind, T[I].Kind) << "op " << I;
    EXPECT_EQ(Parsed[I].Thread, T[I].Thread) << "op " << I;
    if (T[I].Kind == OpKind::Barrier)
      EXPECT_EQ(Parsed.barrierSet(Parsed[I].Target),
                T.barrierSet(T[I].Target));
    else
      EXPECT_EQ(Parsed[I].Target, T[I].Target) << "op " << I;
  }
  EXPECT_EQ(Parsed.numThreads(), T.numThreads());
  EXPECT_EQ(Parsed.numVars(), T.numVars());
}

TEST(TraceIO, ParsesCommentsAndBlankLines) {
  Trace Parsed;
  ParseReport Report = parseTrace("# header\n\n  rd 0 1  # trailing\n\n",
                                  Parsed);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed[0], rd(0, 1));
}

TEST(TraceIO, ParsesWindowsLineEndings) {
  Trace Parsed;
  EXPECT_TRUE(parseTrace("rd 0 1\r\nwr 1 2\r\n", Parsed).ok());
  EXPECT_EQ(Parsed.size(), 2u);
}

TEST(TraceIO, RejectsUnknownOperation) {
  Trace Parsed;
  ParseReport Report = parseTrace("read 0 1\n", Parsed);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.St.code(), StatusCode::ParseError);
  ASSERT_EQ(Report.Diags.size(), 1u);
  EXPECT_EQ(Report.Diags[0].Line, 1u);
  EXPECT_EQ(Report.Diags[0].Sev, Severity::Error);
  EXPECT_NE(Report.Diags[0].Message.find("unknown operation"),
            std::string::npos);
}

TEST(TraceIO, RejectsWrongArity) {
  Trace Parsed;
  EXPECT_FALSE(parseTrace("rd 0\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("rd 0 1 2\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("abegin 0 1\n", Parsed).ok());
}

TEST(TraceIO, RejectsBadNumbers) {
  Trace Parsed;
  EXPECT_FALSE(parseTrace("rd zero 1\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("rd 0 -1\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("rd 0 99999999999\n", Parsed).ok());
}

TEST(TraceIO, RejectsOutOfRangeIds) {
  // Ids at or above MaxEntityId must be rejected: 2^32-1 would alias the
  // NoTarget sentinel, and Trace::numThreads (max id + 1) would wrap.
  Trace Parsed;
  std::string AtLimit = "rd 0 " + std::to_string(MaxEntityId) + "\n";
  ParseReport Report = parseTrace(AtLimit, Parsed);
  ASSERT_FALSE(Report.ok());
  EXPECT_NE(Report.Diags[0].Message.find("out of range"), std::string::npos);

  EXPECT_FALSE(parseTrace("rd 4294967295 0\n", Parsed).ok());
  EXPECT_FALSE(parseTrace("fork 0 4294967295\n", Parsed).ok());
  EXPECT_FALSE(
      parseTrace("barrier 0 " + std::to_string(MaxEntityId) + "\n", Parsed)
          .ok());

  // Just below the bound parses.
  std::string BelowLimit = "rd 0 " + std::to_string(MaxEntityId - 1) + "\n";
  EXPECT_TRUE(parseTrace(BelowLimit, Parsed).ok());
  EXPECT_EQ(Parsed.numVars(), MaxEntityId);

  // A tighter app-specific bound is honored.
  ParseOptions Tight;
  Tight.MaxId = 100;
  EXPECT_FALSE(parseTrace("rd 0 100\n", Parsed, Tight).ok());
  EXPECT_TRUE(parseTrace("rd 0 99\n", Parsed, Tight).ok());
}

TEST(TraceIO, RejectsDuplicateBarrierThreads) {
  Trace Parsed;
  ParseReport Report = parseTrace("barrier 0 1 2 1\n", Parsed);
  ASSERT_FALSE(Report.ok());
  EXPECT_NE(Report.Diags[0].Message.find("duplicate thread id"),
            std::string::npos);
  EXPECT_TRUE(parseTrace("barrier 0 1 2\n", Parsed).ok());
}

TEST(TraceIO, WideBarrierDuplicateNamesTheRepeatedId) {
  // A 20,000-thread barrier parses; the same line with its last id
  // replaced by an earlier one is rejected naming that repeat.
  std::string Ids;
  for (unsigned T = 0; T != 20000; ++T) {
    Ids += ' ';
    Ids += std::to_string(T);
  }
  Trace Parsed;
  ASSERT_TRUE(parseTrace("rd 0 1\nbarrier" + Ids + "\n", Parsed).ok());
  ASSERT_EQ(Parsed.numBarrierSets(), 1u);
  EXPECT_EQ(Parsed.barrierSet(0).size(), 20000u);
  EXPECT_EQ(Parsed.numThreads(), 20000u);

  Ids.resize(Ids.rfind(' '));
  ParseReport Report =
      parseTrace("rd 0 1\nbarrier" + Ids + " 12345\n", Parsed);
  ASSERT_FALSE(Report.ok());
  ASSERT_EQ(Report.Diags.size(), 1u);
  EXPECT_EQ(Report.Diags[0].Line, 2u);
  EXPECT_EQ(Report.Diags[0].Message, "duplicate thread id 12345 in barrier");
  EXPECT_EQ(Report.St.message(),
            "line 2: duplicate thread id 12345 in barrier");
}

TEST(TraceIO, ReportsCorrectLineNumber) {
  Trace Parsed;
  ParseReport Report = parseTrace("rd 0 1\n# ok\nwr 1\n", Parsed);
  ASSERT_FALSE(Report.ok());
  ASSERT_EQ(Report.Diags.size(), 1u);
  EXPECT_EQ(Report.Diags[0].Line, 3u);
  EXPECT_NE(Report.St.message().find("line 3"), std::string::npos);
}

TEST(TraceIO, BarrierNeedsThreads) {
  Trace Parsed;
  EXPECT_FALSE(parseTrace("barrier\n", Parsed).ok());
}

TEST(TraceIO, SalvageSkipsMalformedRecords) {
  ParseOptions Options;
  Options.Salvage = true;
  Trace Parsed;
  ParseReport Report = parseTrace(
      "rd 0 1\nbogus line\nwr 0 2\nrd 0\nbarrier 1 1\nrd 0 3\n", Parsed,
      Options);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  EXPECT_EQ(Report.Records, 3u);
  EXPECT_EQ(Report.Skipped, 3u);
  ASSERT_EQ(Parsed.size(), 3u);
  EXPECT_EQ(Parsed[0], rd(0, 1));
  EXPECT_EQ(Parsed[1], wr(0, 2));
  EXPECT_EQ(Parsed[2], rd(0, 3));
  // One Warning per skipped record, anchored to its line, plus a summary.
  unsigned Warnings = 0;
  for (const Diagnostic &D : Report.Diags)
    if (D.Sev == Severity::Warning) {
      ++Warnings;
      EXPECT_NE(D.Line, 0u);
      EXPECT_EQ(D.Code, StatusCode::ParseError);
    }
  EXPECT_EQ(Warnings, 3u);
  EXPECT_TRUE(hasSeverity(Report, Severity::Note));
}

TEST(TraceIO, SalvageErrorBudgetAborts) {
  ParseOptions Options;
  Options.Salvage = true;
  Options.ErrorBudget = 2;
  Trace Parsed;
  ParseReport Report =
      parseTrace("x\ny\nz\nrd 0 1\n", Parsed, Options);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.St.code(), StatusCode::ParseError);
  EXPECT_NE(Report.St.message().find("budget"), std::string::npos);
  EXPECT_TRUE(hasSeverity(Report, Severity::Fatal));
  // The record after the abort point was never consumed.
  EXPECT_EQ(Report.Records, 0u);
}

TEST(TraceIO, SalvageFlagsTruncatedFinalRecord) {
  ParseOptions Options;
  Options.Salvage = true;
  Trace Parsed;
  // File cut off mid-record: last line lacks both its target and newline.
  ParseReport Report = parseTrace("rd 0 1\nwr 0", Parsed, Options);
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report.Records, 1u);
  EXPECT_EQ(Report.Skipped, 1u);
  bool FlaggedTruncation = false;
  for (const Diagnostic &D : Report.Diags)
    FlaggedTruncation |= D.Message.find("truncated") != std::string::npos;
  EXPECT_TRUE(FlaggedTruncation);
}

TEST(TraceIO, FileRoundTrip) {
  Trace T = sampleTrace();
  std::string Path = ::testing::TempDir() + "/ft_trace_io_test.trc";
  Status St = saveTraceFile(Path, T);
  ASSERT_TRUE(St.ok()) << St.toString();
  Trace Loaded;
  ParseReport Report = loadTraceFile(Path, Loaded);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  EXPECT_EQ(Loaded.size(), T.size());
  std::remove(Path.c_str());
}

TEST(TraceIO, LoadMissingFileFails) {
  Trace Loaded;
  ParseReport Report = loadTraceFile("/nonexistent/path.trc", Loaded);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.St.code(), StatusCode::IoError);
}

TEST(TraceIO, StreamingLoadMatchesInMemoryParse) {
  // Large enough that the trace text spans several 64 KiB read chunks,
  // exercising the partial-line carry between chunks.
  RandomTraceConfig Config;
  Config.Seed = 7;
  Config.NumThreads = 8;
  Config.NumVars = 64;
  Config.OpsPerThread = 4000;
  Config.ChaosProbability = 0.1;
  Config.BarrierProbability = 0.02;
  Trace T = generateRandomTrace(Config);
  std::string Text = serializeTrace(T);
  ASSERT_GT(Text.size(), 3u << 16);

  std::string Path = ::testing::TempDir() + "/ft_trace_io_stream.trc";
  ASSERT_TRUE(saveTraceFile(Path, T).ok());
  Trace Loaded;
  ParseReport Report = loadTraceFile(Path, Loaded);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  ASSERT_EQ(Loaded.size(), T.size());
  EXPECT_EQ(serializeTrace(Loaded), Text);
  std::remove(Path.c_str());
}

TEST(TraceIO, FuzzRoundTripRandomTraces) {
  // Random feasible traces of every operation kind survive
  // serialize → parse → serialize bit-identically.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    RandomTraceConfig Config;
    Config.Seed = Seed;
    Config.NumThreads = 2 + Seed % 5;
    Config.OpsPerThread = 150;
    Config.ChaosProbability = 0.2;
    Config.BarrierProbability = 0.05;
    Config.EmitAtomicBlocks = Seed % 2 == 0;
    Trace T = generateRandomTrace(Config);
    std::string Text = serializeTrace(T);
    Trace Parsed;
    ParseReport Report = parseTrace(Text, Parsed);
    ASSERT_TRUE(Report.ok()) << "seed " << Seed << ": "
                             << Report.St.toString();
    ASSERT_EQ(Parsed.size(), T.size()) << "seed " << Seed;
    EXPECT_EQ(serializeTrace(Parsed), Text) << "seed " << Seed;
  }
}

TEST(TraceIO, FuzzGarbageNeverCrashes) {
  // Pure random bytes — binary, not just text — in both strict and
  // salvage mode: the parser must return structured diagnostics, never
  // crash or hang.
  Xoshiro256StarStar Rng(0xfeedface);
  for (int Case = 0; Case != 200; ++Case) {
    size_t Len = Rng.nextBelow(512);
    std::string Garbage;
    Garbage.reserve(Len);
    for (size_t I = 0; I != Len; ++I)
      Garbage.push_back(static_cast<char>(Rng.nextBelow(256)));
    Trace Parsed;
    ParseOptions Salvage;
    Salvage.Salvage = true;
    parseTrace(Garbage, Parsed); // must not crash
    ParseReport Report = parseTrace(Garbage, Parsed, Salvage);
    if (!Report.ok()) {
      EXPECT_EQ(Report.St.code(), StatusCode::ParseError) << "case " << Case;
    }
  }
}

TEST(TraceIO, FuzzCorruptedTracesNeverCrash) {
  // Start from a valid serialized trace and flip random bytes; strict
  // mode fails cleanly or succeeds, salvage mode keeps whatever held.
  RandomTraceConfig Config;
  Config.Seed = 3;
  Config.OpsPerThread = 100;
  Config.BarrierProbability = 0.05;
  std::string Text = serializeTrace(generateRandomTrace(Config));
  Xoshiro256StarStar Rng(0xc0ffee);
  for (int Case = 0; Case != 100; ++Case) {
    std::string Mutated = Text;
    unsigned Flips = 1 + Rng.nextBelow(8);
    for (unsigned F = 0; F != Flips; ++F)
      Mutated[Rng.nextBelow(Mutated.size())] =
          static_cast<char>(Rng.nextBelow(256));
    Trace Parsed;
    parseTrace(Mutated, Parsed); // must not crash
    ParseOptions Salvage;
    Salvage.Salvage = true;
    Salvage.ErrorBudget = 1u << 20;
    ParseReport Report = parseTrace(Mutated, Parsed, Salvage);
    EXPECT_TRUE(Report.ok()) << "case " << Case;
  }
}
