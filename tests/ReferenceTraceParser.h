//===--- ReferenceTraceParser.h - tokenizing .trc parser for tests --------===//
//
// The trace text parser as it was before the single-pass scanner: each
// line is cut at '#', split into a vector of tokens, the mnemonic found by
// a linear walk over the 11 names, and each record appended through
// Trace::append into a trace that grows by doubling. It exists so tests
// can assert that parseTrace accepts exactly the same records and words
// exactly the same diagnostics (message, line, severity, salvage
// accounting, error-budget abort) as this independent, obviously-correct
// implementation of the grammar.
//
// Test-only: never link this into shipped targets.
//
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_TESTS_REFERENCETRACEPARSER_H
#define FASTTRACK_TESTS_REFERENCETRACEPARSER_H

#include "trace/TraceIO.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ft {
namespace reference {

inline std::optional<uint32_t> parseU32(std::string_view Tok) {
  if (Tok.empty() || Tok.size() > 10)
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : Tok) {
    if (C < '0' || C > '9')
      return std::nullopt;
    Value = Value * 10 + (C - '0');
  }
  if (Value > 0xffffffffULL)
    return std::nullopt;
  return static_cast<uint32_t>(Value);
}

inline std::optional<OpKind> kindFromName(std::string_view Name) {
  static const std::pair<const char *, OpKind> Names[] = {
      {"rd", OpKind::Read},          {"wr", OpKind::Write},
      {"acq", OpKind::Acquire},      {"rel", OpKind::Release},
      {"fork", OpKind::Fork},        {"join", OpKind::Join},
      {"vrd", OpKind::VolatileRead}, {"vwr", OpKind::VolatileWrite},
      {"barrier", OpKind::Barrier},  {"abegin", OpKind::AtomicBegin},
      {"aend", OpKind::AtomicEnd},
  };
  for (const auto &[Str, Kind] : Names)
    if (Name == Str)
      return Kind;
  return std::nullopt;
}

/// One record at a time: tokenizes each line, appends well-formed records
/// to the trace, and routes malformed ones through the strict/salvage
/// policy.
class LineParser {
public:
  LineParser(Trace &Out, const ParseOptions &Options, ParseReport &Report)
      : Out(Out), Options(Options), Report(Report) {}

  /// Parses one raw input line (comments and blanks allowed). \p MaybeTruncated
  /// marks a final line with no trailing newline, where a malformed
  /// record usually means the file was cut off mid-write.
  void consumeLine(std::string_view Raw, unsigned LineNo,
                   bool MaybeTruncated = false) {
    if (Aborted)
      return;
    size_t Hash = Raw.find('#');
    if (Hash != std::string_view::npos)
      Raw = Raw.substr(0, Hash);
    tokenize(Raw);
    if (Tokens.empty())
      return;
    std::string Err;
    if (parseRecord(Err)) {
      ++Report.Records;
      return;
    }
    if (MaybeTruncated)
      Err += " (truncated final record?)";
    recordError(LineNo, std::move(Err));
  }

  /// Emits the salvage summary note. Call once after the last line.
  void finish() {
    if (Options.Salvage && Report.Skipped != 0 && !Aborted)
      Report.Diags.push_back(
          {StatusCode::ParseError, Severity::Note, 0, NoOpIndex,
           "salvage: skipped " + std::to_string(Report.Skipped) +
               " malformed record(s), kept " +
               std::to_string(Report.Records)});
  }

  /// True once the parse failed hard; remaining input is not consumed.
  bool aborted() const { return Aborted; }

private:
  void tokenize(std::string_view Raw) {
    Tokens.clear();
    size_t Pos = 0;
    while (Pos < Raw.size()) {
      while (Pos < Raw.size() &&
             (Raw[Pos] == ' ' || Raw[Pos] == '\t' || Raw[Pos] == '\r'))
        ++Pos;
      size_t Start = Pos;
      while (Pos < Raw.size() && Raw[Pos] != ' ' && Raw[Pos] != '\t' &&
             Raw[Pos] != '\r')
        ++Pos;
      if (Pos > Start)
        Tokens.push_back(Raw.substr(Start, Pos - Start));
    }
  }

  /// Parses an id token, enforcing the MaxId bound (ids that large would
  /// collide with the NoTarget sentinel or wrap entity counts).
  std::optional<uint32_t> parseId(std::string_view Tok, const char *What,
                                  std::string &Err) {
    auto Value = parseU32(Tok);
    if (!Value) {
      Err = std::string("bad ") + What + " '" + std::string(Tok) + "'";
      return std::nullopt;
    }
    if (*Value >= Options.MaxId) {
      Err = std::string(What) + " " + std::string(Tok) +
            " out of range (ids must be < " + std::to_string(Options.MaxId) +
            ")";
      return std::nullopt;
    }
    return Value;
  }

  bool parseRecord(std::string &Err) {
    auto Kind = kindFromName(Tokens[0]);
    if (!Kind) {
      Err = "unknown operation '" + std::string(Tokens[0]) + "'";
      return false;
    }

    if (*Kind == OpKind::Barrier) {
      if (Tokens.size() < 2) {
        Err = "barrier needs at least one thread id";
        return false;
      }
      BarrierSet.clear();
      for (size_t I = 1; I != Tokens.size(); ++I) {
        auto Tid = parseId(Tokens[I], "thread id", Err);
        if (!Tid)
          return false;
        if (std::find(BarrierSet.begin(), BarrierSet.end(), *Tid) !=
            BarrierSet.end()) {
          Err = "duplicate thread id " + std::string(Tokens[I]) +
                " in barrier";
          return false;
        }
        BarrierSet.push_back(*Tid);
      }
      Out.appendBarrier(BarrierSet);
      return true;
    }

    bool HasTarget = *Kind != OpKind::AtomicBegin && *Kind != OpKind::AtomicEnd;
    size_t Expected = HasTarget ? 3 : 2;
    if (Tokens.size() != Expected) {
      Err = "expected " + std::to_string(Expected - 1) + " operand(s) for '" +
            std::string(Tokens[0]) + "'";
      return false;
    }

    auto Tid = parseId(Tokens[1], "thread id", Err);
    if (!Tid)
      return false;
    uint32_t Target = NoTarget;
    if (HasTarget) {
      auto Parsed = parseId(Tokens[2], "target id", Err);
      if (!Parsed)
        return false;
      Target = *Parsed;
    }
    Out.append(Operation(*Kind, *Tid, Target));
    return true;
  }

  void recordError(unsigned LineNo, std::string Message) {
    if (Options.Salvage) {
      ++Report.Skipped;
      Report.Diags.push_back({StatusCode::ParseError, Severity::Warning,
                              LineNo, NoOpIndex, std::move(Message)});
      if (Report.Skipped > Options.ErrorBudget) {
        // The Diagnostic's Line field already carries the position; only the
        // flat Status message needs it spelled out.
        std::string Brief = "salvage error budget (" +
                            std::to_string(Options.ErrorBudget) + ") exhausted";
        Report.St = Status::error(StatusCode::ParseError,
                                  Brief + " at line " + std::to_string(LineNo));
        Report.Diags.push_back({StatusCode::ParseError, Severity::Fatal,
                                LineNo, NoOpIndex, std::move(Brief)});
        Aborted = true;
      }
      return;
    }
    Report.St = Status::error(StatusCode::ParseError,
                              "line " + std::to_string(LineNo) + ": " + Message);
    Report.Diags.push_back({StatusCode::ParseError, Severity::Error, LineNo,
                            NoOpIndex, std::move(Message)});
    Aborted = true;
  }

  Trace &Out;
  const ParseOptions &Options;
  ParseReport &Report;
  std::vector<std::string_view> Tokens;
  std::vector<ThreadId> BarrierSet;
  bool Aborted = false;
};

} // namespace reference

inline ParseReport referenceParseTrace(std::string_view Text, Trace &Out,
                                       const ParseOptions &Options = {}) {
  Out.clear();
  ParseReport Report;
  reference::LineParser Parser(Out, Options, Report);
  unsigned LineNo = 0;
  while (!Text.empty() && !Parser.aborted()) {
    size_t Eol = Text.find('\n');
    bool LastAndUnterminated = Eol == std::string_view::npos;
    std::string_view Raw =
        LastAndUnterminated ? Text : Text.substr(0, Eol);
    Text = LastAndUnterminated ? std::string_view() : Text.substr(Eol + 1);
    Parser.consumeLine(Raw, ++LineNo, LastAndUnterminated);
  }
  Parser.finish();
  return Report;
}

} // namespace ft

#endif // FASTTRACK_TESTS_REFERENCETRACEPARSER_H
