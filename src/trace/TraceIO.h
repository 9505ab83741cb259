//===----------------------------------------------------------------------===//
//
// Part of the FastTrack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of traces, one operation per line:
///
/// \code
///   # comment
///   rd 0 3          # rd(t=0, x=3)
///   wr 1 3
///   acq 0 2
///   rel 0 2
///   fork 0 1
///   join 0 1
///   vrd 0 1         # volatile read
///   vwr 0 1         # volatile write
///   barrier 0 1 2   # barrier release of threads {0,1,2}
///   abegin 0        # atomic-block begin
///   aend 0
/// \endcode
///
/// The format lets examples and external fuzzers feed traces to the
/// detectors without linking against the generators — which means the
/// parser is an ingestion boundary: inputs arrive truncated, corrupt, or
/// adversarial. Parsing therefore reports through the structured
/// diagnostic model (support/Status.h) and offers a *salvage mode* that
/// skips malformed records under a configurable error budget instead of
/// aborting at the first bad byte.
///
/// Reading is one cursor pass over the text. For each line the scanner
/// skips blanks (' ', '\t', '\r'), dispatches on the mnemonic's length
/// and first bytes, parses the ids in place, accepts '#', '\n' or the end
/// of input after the last operand, and appends the record straight into
/// the output trace. Only a rejected line is scanned a second time, to
/// word its diagnostic. The trace is presized to an upper bound on its
/// records, so its operation array is allocated once: the count of '\n'
/// bytes + 1 for in-memory text, and file size ÷ 7 + 1 for a file (the
/// shortest terminated record, "rd 0 1\n", is 7 bytes). parseTrace,
/// loadTraceFile and segmented-capture recovery all accept records
/// through this one scanner. loadTraceFile streams the file in 64 KiB
/// reads and carries only a partial last line between them, so
/// multi-gigabyte traces never hold a second whole-file copy in memory.
///
//===----------------------------------------------------------------------===//

#ifndef FASTTRACK_TRACE_TRACEIO_H
#define FASTTRACK_TRACE_TRACEIO_H

#include "support/Status.h"
#include "trace/Trace.h"

#include <string>
#include <string_view>
#include <vector>

namespace ft {

/// Upper bound (exclusive) on thread/variable/lock/volatile ids accepted
/// by the parser. Ids at or above this are rejected: unchecked 32-bit
/// ids would collide with the NoTarget sentinel and silently wrap the
/// entity counts tools use to pre-size shadow state (Trace::numThreads
/// computes max id + 1).
inline constexpr uint32_t MaxEntityId = 1u << 24;

/// Options controlling one parse.
struct ParseOptions {
  /// Salvage mode: skip malformed records, reporting one Warning
  /// diagnostic each, instead of failing at the first error. The trace
  /// that results holds every record that parsed.
  bool Salvage = false;

  /// Salvage error budget: after this many skipped records the parse
  /// aborts with ParseError (an input that is mostly garbage is more
  /// likely the wrong file than a damaged trace).
  size_t ErrorBudget = 100;

  /// Ids at or above this bound are rejected (see MaxEntityId).
  uint32_t MaxId = MaxEntityId;
};

/// The outcome of one parse: an overall status plus per-line diagnostics
/// and salvage accounting.
struct ParseReport {
  /// Ok, or the first/fatal failure. In salvage mode the parse is Ok as
  /// long as the error budget held, even when records were skipped.
  Status St;

  /// Per-line diagnostics: one Warning per salvaged record, one Error
  /// when the parse failed, Notes for salvage summaries.
  std::vector<Diagnostic> Diags;

  uint64_t Records = 0; ///< Operations appended to the output trace.
  uint64_t Skipped = 0; ///< Malformed records skipped (salvage mode).

  bool ok() const { return St.ok(); }
};

/// Renders \p T in the text format described above.
std::string serializeTrace(const Trace &T);

/// Appends one non-barrier operation's line (with trailing newline) to
/// \p Out. Barriers need the owning trace's side table; serializeTrace
/// handles them. Shared with the segmented flight recorder, which
/// serializes operations as they drain rather than from a whole Trace.
void serializeOperation(std::string &Out, const Operation &Op);

/// Parses the text format into \p Out (cleared first).
ParseReport parseTrace(std::string_view Text, Trace &Out,
                       const ParseOptions &Options = ParseOptions());

/// Writes \p T to \p Path.
Status saveTraceFile(const std::string &Path, const Trace &T);

/// Reads a trace from \p Path into \p Out, streaming the file in fixed
/// chunks (peak memory is one I/O chunk plus the trace itself, never a
/// second whole-file string).
ParseReport loadTraceFile(const std::string &Path, Trace &Out,
                          const ParseOptions &Options = ParseOptions());

} // namespace ft

#endif // FASTTRACK_TRACE_TRACEIO_H
