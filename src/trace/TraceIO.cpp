#include "trace/TraceIO.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <optional>
#include <unordered_set>

using namespace ft;

void ft::serializeOperation(std::string &Out, const Operation &Op) {
  Out += opKindName(Op.Kind);
  Out += ' ';
  Out += std::to_string(Op.Thread);
  if (Op.Target != NoTarget) {
    Out += ' ';
    Out += std::to_string(Op.Target);
  }
  Out += '\n';
}

std::string ft::serializeTrace(const Trace &T) {
  std::string Out;
  Out.reserve(T.size() * 8);
  for (const Operation &Op : T) {
    if (Op.Kind == OpKind::Barrier) {
      Out += opKindName(Op.Kind);
      for (ThreadId U : T.barrierSet(Op.Target)) {
        Out += ' ';
        Out += std::to_string(U);
      }
      Out += '\n';
      continue;
    }
    serializeOperation(Out, Op);
  }
  return Out;
}

namespace {

/// Byte classes of the record grammar: token bytes, the blanks that
/// separate tokens, and the bytes that end a record's text ('\n' ends the
/// line, '#' starts a comment running to it).
enum ByteClass : uint8_t { TokenByte, BlankByte, EndByte };

constexpr std::array<ByteClass, 256> makeByteClasses() {
  std::array<ByteClass, 256> Classes{};
  Classes[' '] = Classes['\t'] = Classes['\r'] = BlankByte;
  Classes['\n'] = Classes['#'] = EndByte;
  return Classes;
}

constexpr std::array<ByteClass, 256> Classes = makeByteClasses();

ByteClass classOf(char C) { return Classes[static_cast<unsigned char>(C)]; }

// The cursor helpers below never test for the end of the buffer: the
// scanner only walks text whose last byte is '\n', an EndByte that stops
// every one of them.

const char *skipBlanks(const char *P) {
  while (classOf(*P) == BlankByte)
    ++P;
  return P;
}

/// Returns the next token at or after \p P (empty at the end of the
/// record's text) and advances \p P past it.
std::string_view nextToken(const char *&P) {
  const char *Start = skipBlanks(P);
  P = Start;
  while (classOf(*P) == TokenByte)
    ++P;
  return std::string_view(Start, P - Start);
}

// The scanner's per-record helpers are forced inline: out of line, the
// kind and id checks cost a call each per record and the compiler no
// longer sees which branches the mnemonic has already decided.

/// Maps a mnemonic to its kind, dispatching on length and first bytes.
[[gnu::always_inline]] inline std::optional<OpKind>
kindFromName(std::string_view Name) {
  switch (Name.size()) {
  case 2:
    if (Name == "rd")
      return OpKind::Read;
    if (Name == "wr")
      return OpKind::Write;
    break;
  case 3:
    switch (Name[0]) {
    case 'a':
      if (Name == "acq")
        return OpKind::Acquire;
      break;
    case 'r':
      if (Name == "rel")
        return OpKind::Release;
      break;
    case 'v':
      if (Name == "vrd")
        return OpKind::VolatileRead;
      if (Name == "vwr")
        return OpKind::VolatileWrite;
      break;
    }
    break;
  case 4:
    switch (Name[0]) {
    case 'f':
      if (Name == "fork")
        return OpKind::Fork;
      break;
    case 'j':
      if (Name == "join")
        return OpKind::Join;
      break;
    case 'a':
      if (Name == "aend")
        return OpKind::AtomicEnd;
      break;
    }
    break;
  case 6:
    if (Name == "abegin")
      return OpKind::AtomicBegin;
    break;
  case 7:
    if (Name == "barrier")
      return OpKind::Barrier;
    break;
  }
  return std::nullopt;
}

bool hasTarget(OpKind Kind) {
  return Kind != OpKind::AtomicBegin && Kind != OpKind::AtomicEnd;
}

enum class IdCheck { Ok, Bad, OutOfRange };

/// Parses the next token at or after \p P as an id, in place, and
/// advances \p P past it. An id is 1-10 decimal digits with a value below
/// \p MaxId (ids that large would collide with the NoTarget sentinel or
/// wrap entity counts); an empty token is Bad.
[[gnu::always_inline]] inline IdCheck scanId(const char *&P, uint32_t MaxId,
                                             uint32_t &Id) {
  P = skipBlanks(P);
  const char *Start = P;
  uint64_t Value = 0;
  for (unsigned Digit; (Digit = static_cast<unsigned char>(*P) - '0') <= 9;
       ++P)
    Value = Value * 10 + Digit;
  if (classOf(*P) == TokenByte) {
    nextToken(P);
    return IdCheck::Bad;
  }
  size_t Len = P - Start;
  if (Len == 0 || Len > 10 || Value > 0xffffffffULL)
    return IdCheck::Bad;
  if (Value >= MaxId)
    return IdCheck::OutOfRange;
  Id = static_cast<uint32_t>(Value);
  return IdCheck::Ok;
}

/// Counts the '\n' bytes of \p Text. Block by block with a 32-bit
/// count, which the compiler vectorises four times wider than
/// std::count's 64-bit one.
size_t countNewlines(std::string_view Text) {
  size_t Lines = 0;
  for (size_t Pos = 0; Pos < Text.size(); Pos += 4096) {
    size_t End = std::min(Text.size(), Pos + 4096);
    uint32_t Block = 0;
    for (size_t I = Pos; I != End; ++I)
      Block += Text[I] == '\n';
    Lines += Block;
  }
  return Lines;
}

/// The trace reader: one cursor pass over the text that appends each
/// well-formed record straight into the output trace and routes malformed
/// ones through the strict/salvage policy. parseTrace, the chunked
/// loadTraceFile and (through parseTrace) segmented-capture recovery all
/// accept records here, so they share one grammar and one set of
/// diagnostics.
class TraceScanner {
public:
  TraceScanner(Trace &Out, const ParseOptions &Options, ParseReport &Report)
      : Out(Out), Options(Options), Report(Report) {}

  /// Scans every complete line of \p Text, i.e. up to and including its
  /// last '\n', and returns how many bytes that was (0 when \p Text holds
  /// no newline). Line numbers continue across calls.
  size_t scanLines(std::string_view Text) {
    size_t Last = Text.rfind('\n');
    if (Last == std::string_view::npos)
      return 0;
    scan(Text.data(), Text.data() + Last + 1, /*MaybeTruncated=*/false);
    return Last + 1;
  }

  /// Scans \p Tail, a final line with no trailing newline, flagging that a
  /// malformed record there usually means the input was cut off
  /// mid-write.
  void scanFinal(std::string_view Tail) {
    if (Tail.empty() || Aborted)
      return;
    std::string Line(Tail);
    Line += '\n';
    scan(Line.data(), Line.data() + Line.size(), /*MaybeTruncated=*/true);
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
  enum class LineKind { Blank, Record, Malformed };

  /// Scans the lines in [P, End); End[-1] is '\n'.
  void scan(const char *P, const char *End, bool MaybeTruncated) {
    // The record count and MaxId live in locals: every append stores
    // bytes, which the compiler must otherwise assume alias the members.
    const uint32_t MaxId = Options.MaxId;
    uint64_t Records = 0;
    while (P != End && !Aborted) {
      ++LineNo;
      const char *Line = P;
      switch (scanRecord(P, MaxId)) {
      case LineKind::Record:
        ++Records;
        break;
      case LineKind::Blank:
        break;
      case LineKind::Malformed:
        reject(Line, MaybeTruncated);
        break;
      }
      // P is still on the line; a comment or a rejected record leaves it
      // short of the '\n'.
      if (*P != '\n')
        P = static_cast<const char *>(std::memchr(P, '\n', End - P));
      ++P;
    }
    Report.Records += Records;
  }

  /// Appends the record on the line at \p P to the trace, if the line
  /// holds a well-formed one. Leaves \p P on the line, at the latest on
  /// its '\n'.
  LineKind scanRecord(const char *&P, uint32_t MaxId) {
    std::string_view Name = nextToken(P);
    if (Name.empty())
      return LineKind::Blank;
    std::optional<OpKind> Kind = kindFromName(Name);
    if (!Kind)
      return LineKind::Malformed;
    if (*Kind == OpKind::Barrier)
      return scanBarrier(P, MaxId);

    uint32_t Tid = 0, Target = NoTarget;
    if (scanId(P, MaxId, Tid) != IdCheck::Ok ||
        (hasTarget(*Kind) && scanId(P, MaxId, Target) != IdCheck::Ok))
      return LineKind::Malformed;
    P = skipBlanks(P);
    if (classOf(*P) != EndByte)
      return LineKind::Malformed;
    Out.append(Operation(*Kind, Tid, Target));
    return LineKind::Record;
  }

  LineKind scanBarrier(const char *&P, uint32_t MaxId) {
    BarrierSet.clear();
    while (classOf(*skipBlanks(P)) != EndByte) {
      uint32_t Tid;
      if (scanId(P, MaxId, Tid) != IdCheck::Ok)
        return LineKind::Malformed;
      BarrierSet.push_back(Tid);
    }
    if (BarrierSet.empty())
      return LineKind::Malformed;
    // Duplicates by sorting: O(n log n) in the barrier's width. The order
    // is free to change, since appendBarrier stores the set sorted.
    std::sort(BarrierSet.begin(), BarrierSet.end());
    if (std::adjacent_find(BarrierSet.begin(), BarrierSet.end()) !=
        BarrierSet.end())
      return LineKind::Malformed;
    Out.appendBarrier(BarrierSet);
    return LineKind::Record;
  }

  /// Reports the malformed record on the line at \p Line.
  void reject(const char *Line, bool MaybeTruncated) {
    std::string Err = explain(Line);
    if (MaybeTruncated)
      Err += " (truncated final record?)";
    recordError(std::move(Err));
  }

  /// Words the diagnostic for a line scanRecord() rejected by re-scanning
  /// it in the grammar's order of checks: the mnemonic, then (barriers)
  /// each thread id in turn, or (other kinds) the operand count before
  /// the operands.
  std::string explain(const char *P) const {
    std::string Name(nextToken(P));
    std::optional<OpKind> Kind = kindFromName(Name);
    if (!Kind)
      return "unknown operation '" + Name + "'";

    if (*Kind == OpKind::Barrier) {
      std::unordered_set<ThreadId> Seen;
      while (classOf(*skipBlanks(P)) != EndByte) {
        const char *Tok = skipBlanks(P);
        uint32_t Tid;
        if (IdCheck C = scanId(P, Options.MaxId, Tid); C != IdCheck::Ok)
          return explainId(C, std::string_view(Tok, P - Tok), "thread id");
        if (!Seen.insert(Tid).second)
          return "duplicate thread id " + std::string(Tok, P - Tok) +
                 " in barrier";
      }
      // Every id was fine, so there were none.
      return "barrier needs at least one thread id";
    }

    size_t Expected = hasTarget(*Kind) ? 2 : 1;
    size_t Count = 0;
    for (const char *Q = P; !nextToken(Q).empty();)
      ++Count;
    if (Count != Expected)
      return "expected " + std::to_string(Expected) + " operand(s) for '" +
             Name + "'";
    const char *What[] = {"thread id", "target id"};
    for (size_t I = 0; I != Count; ++I) {
      const char *Tok = skipBlanks(P);
      uint32_t Id;
      if (IdCheck C = scanId(P, Options.MaxId, Id); C != IdCheck::Ok)
        return explainId(C, std::string_view(Tok, P - Tok), What[I]);
    }
    assert(false && "explain() called on a well-formed record");
    return "malformed record";
  }

  std::string explainId(IdCheck C, std::string_view Tok,
                        const char *What) const {
    if (C == IdCheck::Bad)
      return std::string("bad ") + What + " '" + std::string(Tok) + "'";
    return std::string(What) + " " + std::string(Tok) +
           " out of range (ids must be < " + std::to_string(Options.MaxId) +
           ")";
  }

  void recordError(std::string Message) {
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
  std::vector<ThreadId> BarrierSet;
  unsigned LineNo = 0;
  bool Aborted = false;
};

} // namespace

ParseReport ft::parseTrace(std::string_view Text, Trace &Out,
                           const ParseOptions &Options) {
  Out.clear();
  // Every record ends a line, so the line count bounds the record count:
  // the trace allocates its operation array once.
  Out.reserve(countNewlines(Text) + 1);
  ParseReport Report;
  TraceScanner Scanner(Out, Options, Report);
  Scanner.scanFinal(Text.substr(Scanner.scanLines(Text)));
  Scanner.finish();
  return Report;
}

Status ft::saveTraceFile(const std::string &Path, const Trace &T) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return Status::error(StatusCode::IoError,
                         "cannot open '" + Path + "' for writing");
  std::string Text = serializeTrace(T);
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), File);
  std::fclose(File);
  if (Written != Text.size())
    return Status::error(StatusCode::IoError, "short write to '" + Path + "'");
  return Status::okStatus();
}

ParseReport ft::loadTraceFile(const std::string &Path, Trace &Out,
                              const ParseOptions &Options) {
  Out.clear();
  ParseReport Report;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Report.St = Status::error(StatusCode::IoError,
                              "cannot open '" + Path + "' for reading");
    Report.Diags.push_back({StatusCode::IoError, Severity::Error, 0,
                            NoOpIndex, Report.St.message()});
    return Report;
  }

  // The shortest terminated record ("rd 0 1\n", "aend 0\n") is 7 bytes,
  // so the file size bounds the record count: presize the trace once.
  // Unseekable inputs just grow.
  if (std::fseek(File, 0, SEEK_END) == 0) {
    long Size = std::ftell(File);
    if (Size > 0)
      Out.reserve(static_cast<size_t>(Size) / 7 + 1);
    std::fseek(File, 0, SEEK_SET);
  }

  // Stream in fixed-size chunks; only a partial trailing line is ever
  // carried between chunks, so peak memory stays one chunk + the trace.
  TraceScanner Scanner(Out, Options, Report);
  std::string Carry;
  char Buf[1 << 16];
  size_t Got;
  while (!Scanner.aborted() &&
         (Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0) {
    std::string_view Chunk(Buf, Got);
    if (!Carry.empty()) {
      // Complete the carried line and scan it on its own.
      size_t Eol = Chunk.find('\n');
      if (Eol == std::string_view::npos) {
        Carry.append(Chunk);
        continue;
      }
      Carry.append(Chunk.substr(0, Eol + 1));
      Scanner.scanLines(Carry);
      Carry.clear();
      Chunk.remove_prefix(Eol + 1);
    }
    Carry.assign(Chunk.substr(Scanner.scanLines(Chunk)));
  }
  bool ReadError = std::ferror(File) != 0;
  std::fclose(File);

  if (ReadError && !Scanner.aborted()) {
    Report.St = Status::error(StatusCode::IoError,
                              "read error on '" + Path + "'");
    Report.Diags.push_back({StatusCode::IoError, Severity::Error, 0,
                            NoOpIndex, Report.St.message()});
    return Report;
  }
  Scanner.scanFinal(Carry);
  Scanner.finish();
  return Report;
}
