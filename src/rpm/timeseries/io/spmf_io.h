// SPMF-compatible transaction-database text format.
//
// Plain format (one transaction per line, whitespace-separated items;
// the timestamp is the 1-based line number):
//     a b g
//     a c d
//
// Timestamped format (explicit timestamp, '|' separator) — this is the
// "time-based sequence" the paper mines; lines may skip timestamps
// (cf. Table 1, where ts 8 and 13 have no transaction):
//     1|a b g
//     2|a c d
//     4|a b c d
//
// Item tokens are interned by name unless ParseOptions.items_are_ids, in
// which case each token must parse as a uint32 used verbatim as the ItemId.

#ifndef RPM_TIMESERIES_IO_SPMF_IO_H_
#define RPM_TIMESERIES_IO_SPMF_IO_H_

#include <iosfwd>
#include <string>

#include "rpm/common/status.h"
#include "rpm/timeseries/transaction_database.h"

namespace rpm {

struct SpmfParseOptions {
  /// Treat item tokens as numeric ids instead of interning names.
  bool items_are_ids = false;
  /// Skip lines that are empty or start with '#' or '%' or '@' (SPMF
  /// metadata conventions).
  bool allow_comments = true;
  /// Reject a line whose token list repeats an item instead of silently
  /// deduplicating it. Use for inputs that are supposed to already be
  /// valid transactions (duplicate tokens then indicate corruption).
  bool strict = false;
};

/// Readers enforce the Transaction invariant at the boundary: each line's
/// items come out sorted ascending and duplicate-free (Corruption under
/// `strict` when tokens repeat), and in items_are_ids mode the reserved
/// kInvalidItem id (4294967295) is rejected — accepting it verbatim would
/// wrap every dense per-item array downstream. CRLF line endings and
/// trailing whitespace are tolerated in all modes.
///
/// Each reader takes the whole input into one buffer and parses it in one
/// pass, so the input's size is held in memory until the database is
/// built.

/// Reads the plain format; timestamps are 1-based line numbers (counting
/// only transaction lines).
Result<TransactionDatabase> ReadSpmf(std::istream* in,
                                     const SpmfParseOptions& options = {});
Result<TransactionDatabase> ReadSpmfFile(
    const std::string& path, const SpmfParseOptions& options = {});

/// Reads the timestamped "<ts>|<items>" format.
Result<TransactionDatabase> ReadTimestampedSpmf(
    std::istream* in, const SpmfParseOptions& options = {});
Result<TransactionDatabase> ReadTimestampedSpmfFile(
    const std::string& path, const SpmfParseOptions& options = {});

/// Writes the timestamped format. Items are written as names when the
/// database has a dictionary, else as numeric ids.
Status WriteTimestampedSpmf(const TransactionDatabase& db,
                            std::ostream* out);
Status WriteTimestampedSpmfFile(const TransactionDatabase& db,
                                const std::string& path);

}  // namespace rpm

#endif  // RPM_TIMESERIES_IO_SPMF_IO_H_
