//===--- TraceParserDiffTest.cpp - scanner vs reference parser ------------===//
//
// Differential tests for the trace text reader: parseTrace (the one-pass
// cursor scanner) against the tokenizing reference parser in
// ReferenceTraceParser.h, in strict and salvage mode, on garbage, damaged
// traces and every corner of the grammar. The two must agree on the
// operations, entity counts and barrier sets of the trace, on Records and
// Skipped, on the status, and on every field of every diagnostic. A
// chunk-boundary suite then holds loadTraceFile's streaming path to the
// in-memory parse, diagnostic for diagnostic.
//
//===----------------------------------------------------------------------===//

#include "ReferenceTraceParser.h"

#include "support/Rng.h"
#include "trace/RandomTrace.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ft;

namespace {

/// Asserts \p A and \p B are the same trace: operations, entity counts
/// and barrier side table.
void expectSameTrace(const Trace &A, const Trace &B, const std::string &Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  for (size_t I = 0; I != A.size(); ++I)
    ASSERT_EQ(A[I], B[I]) << Label << ": op " << I;
  EXPECT_EQ(A.numThreads(), B.numThreads()) << Label;
  EXPECT_EQ(A.numVars(), B.numVars()) << Label;
  EXPECT_EQ(A.numLocks(), B.numLocks()) << Label;
  EXPECT_EQ(A.numVolatiles(), B.numVolatiles()) << Label;
  ASSERT_EQ(A.numBarrierSets(), B.numBarrierSets()) << Label;
  for (uint32_t I = 0; I != A.numBarrierSets(); ++I)
    EXPECT_EQ(A.barrierSet(I), B.barrierSet(I)) << Label << ": set " << I;
}

/// Asserts two parse reports agree field by field.
void expectSameReport(const ParseReport &A, const ParseReport &B,
                      const std::string &Label) {
  EXPECT_EQ(A.St.code(), B.St.code()) << Label;
  EXPECT_EQ(A.St.message(), B.St.message()) << Label;
  EXPECT_EQ(A.Records, B.Records) << Label;
  EXPECT_EQ(A.Skipped, B.Skipped) << Label;
  ASSERT_EQ(A.Diags.size(), B.Diags.size()) << Label;
  for (size_t I = 0; I != A.Diags.size(); ++I) {
    const Diagnostic &X = A.Diags[I], &Y = B.Diags[I];
    EXPECT_EQ(X.Code, Y.Code) << Label << ": diag " << I;
    EXPECT_EQ(X.Sev, Y.Sev) << Label << ": diag " << I;
    EXPECT_EQ(X.Line, Y.Line) << Label << ": diag " << I;
    EXPECT_EQ(X.OpIndex, Y.OpIndex) << Label << ": diag " << I;
    EXPECT_EQ(X.Message, Y.Message) << Label << ": diag " << I;
  }
}

/// The parse options every input is checked under: strict, salvage with
/// the default, a tiny and an unlimited error budget, and a tight MaxId.
std::vector<ParseOptions> optionSets() {
  std::vector<ParseOptions> Sets(6);
  Sets[1].Salvage = true;
  Sets[2].Salvage = true;
  Sets[2].ErrorBudget = 0;
  Sets[3].Salvage = true;
  Sets[3].ErrorBudget = 2;
  Sets[4].Salvage = true;
  Sets[4].ErrorBudget = size_t(1) << 30;
  Sets[5].Salvage = true;
  Sets[5].MaxId = 100;
  return Sets;
}

/// Parses \p Text with the scanner and the reference under every option
/// set and asserts identical outcomes.
void expectSameParse(std::string_view Text, const std::string &Label) {
  std::vector<ParseOptions> Sets = optionSets();
  for (size_t I = 0; I != Sets.size(); ++I) {
    std::string Where = Label + " [options " + std::to_string(I) + "]";
    Trace Got, Want;
    ParseReport GotReport = parseTrace(Text, Got, Sets[I]);
    ParseReport WantReport = referenceParseTrace(Text, Want, Sets[I]);
    expectSameReport(GotReport, WantReport, Where);
    expectSameTrace(Got, Want, Where);
  }
}

std::string sampleText() {
  RandomTraceConfig Config;
  Config.Seed = 5;
  Config.NumThreads = 4;
  Config.OpsPerThread = 60;
  Config.ChaosProbability = 0.2;
  Config.BarrierProbability = 0.05;
  Config.EmitAtomicBlocks = true;
  return serializeTrace(generateRandomTrace(Config));
}

/// Every operation kind once, in serialized form.
const char *const AllKinds = "fork 0 1\n"
                             "rd 0 3\n"
                             "wr 1 3\n"
                             "acq 0 2\n"
                             "rel 0 2\n"
                             "vrd 1 4\n"
                             "vwr 0 4\n"
                             "barrier 0 1 2\n"
                             "abegin 1\n"
                             "aend 1\n"
                             "join 0 1\n";

} // namespace

TEST(TraceParserDiff, AllKinds) {
  expectSameParse(AllKinds, "all kinds");
  Trace Parsed;
  ParseReport Report = parseTrace(AllKinds, Parsed);
  ASSERT_TRUE(Report.ok()) << Report.St.toString();
  EXPECT_EQ(Report.Records, 11u);
}

TEST(TraceParserDiff, WhitespaceCommentAndCrlfVariants) {
  const char *Cases[] = {
      "",
      "\n",
      "\n\n\n",
      "   \n\t\n\r\n",
      "#only a comment",
      "# comment\n#\n##\n",
      "rd 0 1",
      "rd 0 1\n",
      "rd 0 1\r\n",
      "rd 0 1\r",
      "rd 0 1\r\r\n",
      "\trd\t0\t1\t\n",
      "  rd   0    1   \n",
      "rd 0 1#comment\n",
      "rd 0 1 # comment\n",
      "rd 0 1\t#\n",
      "rd#0 1\n",
      "rd 0#1\n",
      "#rd 0 1\n",
      "rd 0 1\n# trailing comment, no newline",
      "rd 0 1\n   ",
      "rd 0 1\n\t\r",
      "rd\r0\r1\n",
      "barrier 0 1 2 # comment\n",
      "barrier\t0\t1\r\n",
      "barrier 0 1 2",
      "abegin 0\naend 0",
      "abegin 0 # c\r\naend 0\r\n",
      "rd 0 1\r\nwr 1 2\r\n\r\nacq 0 1\r\n",
  };
  for (const char *Text : Cases)
    expectSameParse(Text, "variant '" + std::string(Text) + "'");
}

TEST(TraceParserDiff, MissingAndExtraOperands) {
  const char *Cases[] = {
      "rd\n",           "rd 0\n",           "rd 0 1 2\n",
      "wr 1\n",         "wr 1 2 3 4\n",     "acq\n",
      "acq 0\n",        "rel 0 1 1\n",      "fork 0\n",
      "join 0 1 2\n",   "vrd 0\n",          "vwr 0 1 2\n",
      "abegin\n",       "abegin 0 1\n",     "aend\n",
      "aend 0 1\n",     "barrier\n",        "barrier  \n",
      "barrier #\n",    "barrier 1 1\n",    "barrier 0 1 2 1\n",
      "barrier 0 x 0\n", "barrier 0 0 x\n", "rd x\n",
      "rd x y z\n",     "rd 0 x\n",         "rd x 0\n",
      "rd 0 1 x\n",     "abegin x\n",       "abegin x y\n",
      "rd 0",           "wr 0 ",            "barrier",
      "aend",           "rd 0 1 2",         "fork 0 1\nrd 0\nwr 0 1",
  };
  for (const char *Text : Cases)
    expectSameParse(Text, "operands '" + std::string(Text) + "'");
}

TEST(TraceParserDiff, IdBoundsAndDigitCounts) {
  std::string Max = std::to_string(MaxEntityId);
  std::string BelowMax = std::to_string(MaxEntityId - 1);
  std::vector<std::string> Cases = {
      "rd 0 " + BelowMax + "\n",
      "rd 0 " + Max + "\n",
      "rd " + BelowMax + " 0\n",
      "rd " + Max + " 0\n",
      "fork 0 " + BelowMax + "\n",
      "fork 0 " + Max + "\n",
      "barrier 0 " + BelowMax + "\n",
      "barrier 0 " + Max + "\n",
      "abegin " + Max + "\n",
      "rd 0 99\nrd 0 100\nrd 0 101\n", // the tight MaxId of option set 5
      "rd 0 1234567890\n",             // 10 digits, out of range
      "rd 0 0000000001\n",             // 10 digits, leading zeros
      "rd 0 00000000001\n",            // 11 digits
      "rd 0 12345678901\n",
      "rd 0 4294967295\n",
      "rd 0 4294967296\n",
      "rd 0 9999999999\n",
      "rd 4294967296 0\n",
      "barrier 4294967296\n",
      "barrier 0000000002 2\n",
      "rd 0 -1\n",
      "rd 0 +1\n",
      "rd 0 1x\n",
      "rd 0 x1\n",
      "rd 00 01\n",
  };
  for (const std::string &Text : Cases)
    expectSameParse(Text, "ids '" + Text + "'");
}

TEST(TraceParserDiff, OddBytesInsideTokens) {
  // Only ' ', '\t' and '\r' separate tokens: other control bytes, NULs and
  // high bytes are part of the token they touch.
  const std::string Cases[] = {
      std::string("rd\v0 1\n"),
      std::string("rd 0\f1\n"),
      std::string("rd 0 1\v\n"),
      std::string("rd\0 0 1\n", 8),
      std::string("rd 0 1\0\n", 8),
      std::string("rd 0 1\0", 7),
      std::string("\0\n", 2),
      std::string("r\xff" "d 0 1\n"),
      std::string("rd 0 \xff\n"),
      std::string("rdx 0 1\n"),
      std::string("r 0 1\n"),
      std::string("barrierx 0\n"),
      std::string("vr 0 1\n"),
      std::string("vrdd 0 1\n"),
      std::string("RD 0 1\n"),
  };
  for (const std::string &Text : Cases)
    expectSameParse(Text, "odd bytes");
}

TEST(TraceParserDiff, SeededGarbage) {
  // Half the cases draw bytes uniformly; the other half from an alphabet
  // of grammar fragments, so records come out nearly right far more often.
  const char *const Fragments[] = {
      "rd", "wr", "acq", "rel", "fork", "join", "vrd", "vwr", "barrier",
      "abegin", "aend", " ", " ", "\t", "\r", "\n", "\n", "#", "0", "1",
      "7", "42", "99", "100", "16777215", "16777216", "4294967296", "x",
      "\v", "-"};
  Xoshiro256StarStar Rng(0x5ca11ed);
  for (int Case = 0; Case != 400; ++Case) {
    std::string Text;
    size_t Len = Rng.nextBelow(200);
    if (Case % 2 == 0) {
      for (size_t I = 0; I != Len; ++I)
        Text.push_back(static_cast<char>(Rng.nextBelow(256)));
    } else {
      while (Text.size() < Len)
        Text += Fragments[Rng.nextBelow(std::size(Fragments))];
    }
    expectSameParse(Text, "garbage case " + std::to_string(Case));
    if (::testing::Test::HasFailure())
      return; // one failing case is enough to read
  }
}

TEST(TraceParserDiff, ByteFlippedTraces) {
  std::string Text = sampleText();
  Xoshiro256StarStar Rng(0xf11b);
  for (int Case = 0; Case != 150; ++Case) {
    std::string Mutated = Text;
    unsigned Flips = 1 + Rng.nextBelow(6);
    for (unsigned F = 0; F != Flips; ++F)
      Mutated[Rng.nextBelow(Mutated.size())] =
          static_cast<char>(Rng.nextBelow(256));
    // Sometimes cut the text off mid-record as well.
    if (Case % 3 == 0)
      Mutated.resize(Rng.nextBelow(Mutated.size() + 1));
    expectSameParse(Mutated, "flip case " + std::to_string(Case));
    if (::testing::Test::HasFailure())
      return;
  }
}

TEST(TraceParserDiff, ValidTracesRoundTrip) {
  std::string Text = sampleText();
  expectSameParse(Text, "sample trace");
  Trace Parsed;
  ASSERT_TRUE(parseTrace(Text, Parsed).ok());
  EXPECT_EQ(serializeTrace(Parsed), Text);
}

namespace {

constexpr size_t ChunkBytes = size_t(1) << 16; // loadTraceFile's read size

/// Pads with whole "rd 0 1\n" records and comment lines so that the next
/// byte appended lands at file offset \p Offset.
void padTo(std::string &Text, size_t Offset) {
  while (Text.size() + 7 <= Offset)
    Text += "rd 0 1\n";
  if (Text.size() < Offset)
    Text += std::string(Offset - Text.size() - 1, '#') + "\n";
}

/// Writes \p Text to a file and asserts loadTraceFile agrees with
/// parseTrace on it, diagnostic for diagnostic, under every option set.
void expectLoadMatchesParse(const std::string &Text, const std::string &Label) {
  // ctest runs the tests of this suite in parallel: one file per test.
  std::string Path =
      ::testing::TempDir() + "/ft_trace_chunks_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".trc";
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fwrite(Text.data(), 1, Text.size(), File), Text.size());
  std::fclose(File);
  for (const ParseOptions &Options : optionSets()) {
    Trace Loaded, Parsed;
    ParseReport LoadReport = loadTraceFile(Path, Loaded, Options);
    ParseReport InMemory = parseTrace(Text, Parsed, Options);
    expectSameReport(LoadReport, InMemory, Label);
    expectSameTrace(Loaded, Parsed, Label);
  }
  std::remove(Path.c_str());
}

} // namespace

TEST(TraceParserDiff, LoadSplitsEveryConstructAcrossChunks) {
  // Straddle the first two 64 KiB read boundaries with a record, a "\r\n"
  // pair, a comment and a barrier line; a malformed record straddles the
  // third. The file ends with an unterminated, malformed final record.
  std::string Text;
  padTo(Text, ChunkBytes - 3);
  Text += "wr 12 345\n"; // "wr " | "12 345\n"
  padTo(Text, 2 * ChunkBytes - 7);
  Text += "rd 1 2\r\n"; // "rd 1 2\r" | "\n"
  padTo(Text, 3 * ChunkBytes - 4);
  Text += "# a comment across the boundary\n";
  padTo(Text, 4 * ChunkBytes - 10);
  Text += "barrier 0 1 2 3\n"; // "barrier 0 " | "1 2 3\n"
  padTo(Text, 5 * ChunkBytes - 2);
  Text += "rd 0 x\n"; // "rd" | " 0 x\n"
  padTo(Text, 6 * ChunkBytes - 1);
  Text += "\n\n"; // a blank line right on the boundary
  Text += "wr 3";  // truncated final record
  ASSERT_GT(Text.size(), 6 * ChunkBytes);
  expectLoadMatchesParse(Text, "chunk boundaries");

  Trace Parsed;
  ParseOptions Salvage;
  Salvage.Salvage = true;
  ParseReport Report = parseTrace(Text, Parsed, Salvage);
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report.Skipped, 2u);
  ASSERT_FALSE(Report.Diags.empty());
  EXPECT_NE(Report.Diags[1].Message.find("(truncated final record?)"),
            std::string::npos);
}

TEST(TraceParserDiff, LoadCarriesLinesLongerThanAChunk) {
  // A comment line longer than a whole read, then a barrier naming 20,000
  // threads — itself longer than a read — that straddles the next read
  // boundary.
  std::string Text = "rd 0 1\n#";
  Text.append(ChunkBytes + 100, 'c');
  Text += '\n';
  padTo(Text, 2 * ChunkBytes - 5000);
  Text += "barrier";
  for (unsigned T = 0; T != 20000; ++T) {
    Text += ' ';
    Text += std::to_string(T);
  }
  Text += "\nwr 0 1\n";
  ASSERT_GT(Text.size(), 2 * ChunkBytes + 5000);
  expectLoadMatchesParse(Text, "long lines");
}

TEST(TraceParserDiff, LoadEveryBoundaryOffsetOfOneRecord) {
  // Slide one record and its CRLF across the first read boundary byte by
  // byte, terminated and not.
  for (size_t Shift = 0; Shift != 12; ++Shift) {
    std::string Text;
    padTo(Text, ChunkBytes - Shift);
    Text += "fork 3 14\r\n";
    expectLoadMatchesParse(Text, "shift " + std::to_string(Shift));
    Text.resize(Text.size() - 2);
    expectLoadMatchesParse(Text, "unterminated shift " + std::to_string(Shift));
  }
}
