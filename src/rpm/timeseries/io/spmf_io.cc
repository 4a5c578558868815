#include "rpm/timeseries/io/spmf_io.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <system_error>

#include "rpm/common/failpoint.h"
#include "rpm/common/string_util.h"
#include "rpm/timeseries/tdb_builder.h"

namespace rpm {

namespace {

/// ASCII whitespace as std::isspace classifies it in the "C" locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsCommentOrBlank(std::string_view line) {
  std::string_view t = Trim(line);
  return t.empty() || t.front() == '#' || t.front() == '%' ||
         t.front() == '@';
}

/// "line N (byte B)": every reader diagnostic carries the 1-based line AND
/// the 0-based byte offset, so a failure in a multi-gigabyte file is
/// addressable with `head -c` / `dd` as well as an editor.
std::string At(size_t line_no, uint64_t byte_offset) {
  std::string tag;
  tag += "line ";
  tag += std::to_string(line_no);
  tag += " (byte ";
  tag += std::to_string(byte_offset);
  tag += ")";
  return tag;
}

std::string Quoted(std::string_view tok) {
  std::string q;
  q += '\'';
  q.append(tok.data(), tok.size());
  q += '\'';
  return q;
}

/// Tokenizes `text` in place into `out`, sorted and duplicate-free.
/// `text` must be a substring view into `line`; token byte offsets are
/// derived from their position within it.
Status ParseItems(std::string_view text, std::string_view line,
                  uint64_t line_offset, const SpmfParseOptions& options,
                  ItemDictionary* dict, Itemset* out, size_t line_no) {
  out->clear();
  const char* p = text.data();
  const char* const end = p + text.size();
  for (;;) {
    while (p < end && IsSpace(*p)) ++p;
    if (p == end) break;
    const char* const begin = p;
    while (p < end && !IsSpace(*p)) ++p;
    const std::string_view tok(begin, static_cast<size_t>(p - begin));
    if (!options.items_are_ids) {
      out->push_back(dict->GetOrAdd(tok));
      continue;
    }
    const uint64_t tok_offset =
        line_offset + static_cast<uint64_t>(begin - line.data());
    Result<uint32_t> id = ParseUint32(tok);
    if (!id.ok()) {
      return Status::Corruption(At(line_no, tok_offset) + ": bad item "
                                "token " + Quoted(tok) + ": " +
                                id.status().message());
    }
    if (*id == kInvalidItem) {
      return Status::Corruption(
          At(line_no, tok_offset) + ": item id " + std::to_string(*id) +
          " is the reserved invalid-item sentinel");
    }
    out->push_back(*id);
  }
  if (out->empty()) {
    return Status::Corruption(At(line_no, line_offset) +
                              ": transaction with no items");
  }
  // Enforce the Transaction invariant (sorted ascending, duplicate-free)
  // here rather than relying on a downstream builder to clean up.
  std::sort(out->begin(), out->end());
  auto dup = std::unique(out->begin(), out->end());
  if (dup != out->end()) {
    if (options.strict) {
      return Status::Corruption(At(line_no, line_offset) +
                                ": duplicate item in transaction");
    }
    out->erase(dup, out->end());
  }
  return Status::OK();
}

/// The one line scanner behind both formats. Walks `text` line by line
/// without copying it; `timestamped` selects "<ts>|<items>" lines,
/// otherwise a line's timestamp is its 1-based index among transaction
/// lines. The io.read failpoint is checked once per line.
Result<TransactionDatabase> ParseSpmfText(std::string_view text,
                                          bool timestamped,
                                          const SpmfParseOptions& options) {
  TdbBuilder builder;
  ItemDictionary dict;
  Itemset items;
  size_t line_no = 0;
  Timestamp plain_ts = 0;
  const char* const base = text.data();
  const char* const end = base + text.size();
  for (const char* next = base; next < end;) {
    const char* newline = static_cast<const char*>(
        std::memchr(next, '\n', static_cast<size_t>(end - next)));
    const char* const line_end = newline != nullptr ? newline : end;
    const std::string_view line(next, static_cast<size_t>(line_end - next));
    const uint64_t line_offset = static_cast<uint64_t>(next - base);
    next = newline != nullptr ? newline + 1 : end;
    ++line_no;
    if (FailpointTriggered("io.read")) {
      return Status::IOError("injected read fault at " +
                             At(line_no, line_offset));
    }
    if (options.allow_comments && IsCommentOrBlank(line)) continue;
    std::string_view item_text = line;
    Timestamp ts = 0;
    if (timestamped) {
      const size_t bar = line.find('|');
      if (bar == std::string_view::npos) {
        return Status::Corruption(At(line_no, line_offset) +
                                  ": missing '|' timestamp separator");
      }
      const std::string_view ts_text = Trim(line.substr(0, bar));
      Result<int64_t> parsed = ParseInt64(ts_text);
      if (!parsed.ok()) {
        return Status::Corruption(At(line_no, line_offset) +
                                  ": bad timestamp token " +
                                  Quoted(ts_text) + ": " +
                                  parsed.status().message());
      }
      ts = *parsed;
      item_text = line.substr(bar + 1);
    } else {
      ts = ++plain_ts;
    }
    RPM_RETURN_NOT_OK(ParseItems(item_text, line, line_offset, options,
                                 &dict, &items, line_no));
    builder.AddTransaction(ts, items);
  }
  return builder.Build(std::move(dict));
}

/// Appends the rest of `in` to `text`, taking whatever the stream buffer
/// holds before asking it for more, so bytes delivered before a device
/// error are kept exactly as a line-by-line reader would have consumed
/// them. Returns false when the stream went bad; `text` is then cut back to
/// its last complete line, which is as far as such a reader would have got.
bool ReadAll(std::istream* in, std::string* text) {
  if (!in->good()) return !in->bad();
  std::streambuf* buf = in->rdbuf();
  try {
    for (;;) {
      const std::streamsize avail = buf->in_avail();
      if (avail < 0) break;
      if (avail == 0) {
        if (buf->sgetc() == std::char_traits<char>::eof()) break;
        continue;
      }
      const size_t size = text->size();
      text->resize(size + static_cast<size_t>(avail));
      const std::streamsize got = buf->sgetn(text->data() + size, avail);
      text->resize(size + static_cast<size_t>(got));
    }
  } catch (...) {
    const size_t last_newline = text->rfind('\n');
    text->resize(last_newline == std::string::npos ? 0 : last_newline + 1);
    in->setstate(std::ios::badbit);
    return false;
  }
  in->setstate(std::ios::eofbit);
  return true;
}

/// Reads all of `in` into `text` (which may arrive with reserved capacity)
/// and parses it in one pass.
Result<TransactionDatabase> ReadSpmfText(std::istream* in, std::string text,
                                         bool timestamped,
                                         const SpmfParseOptions& options) {
  const bool intact = ReadAll(in, &text);
  RPM_ASSIGN_OR_RETURN(TransactionDatabase db,
                       ParseSpmfText(text, timestamped, options));
  if (!intact) {
    const size_t lines = static_cast<size_t>(
        std::count(text.begin(), text.end(), '\n'));
    return Status::IOError("stream error while reading SPMF at " +
                           At(lines, text.size()));
  }
  return db;
}

Result<TransactionDatabase> ReadSpmfTextFile(
    const std::string& path, bool timestamped,
    const SpmfParseOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::string text;
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) text.reserve(static_cast<size_t>(size));
  return ReadSpmfText(&in, std::move(text), timestamped, options);
}

}  // namespace

Result<TransactionDatabase> ReadSpmf(std::istream* in,
                                     const SpmfParseOptions& options) {
  return ReadSpmfText(in, {}, /*timestamped=*/false, options);
}

Result<TransactionDatabase> ReadTimestampedSpmf(
    std::istream* in, const SpmfParseOptions& options) {
  return ReadSpmfText(in, {}, /*timestamped=*/true, options);
}

Result<TransactionDatabase> ReadSpmfFile(const std::string& path,
                                         const SpmfParseOptions& options) {
  return ReadSpmfTextFile(path, /*timestamped=*/false, options);
}

Result<TransactionDatabase> ReadTimestampedSpmfFile(
    const std::string& path, const SpmfParseOptions& options) {
  return ReadSpmfTextFile(path, /*timestamped=*/true, options);
}

Status WriteTimestampedSpmf(const TransactionDatabase& db,
                            std::ostream* out) {
  const bool named = !db.dictionary().empty();
  for (const Transaction& tr : db.transactions()) {
    *out << tr.ts << '|';
    for (size_t i = 0; i < tr.items.size(); ++i) {
      if (i > 0) *out << ' ';
      if (named) {
        *out << db.dictionary().NameOf(tr.items[i]);
      } else {
        *out << tr.items[i];
      }
    }
    *out << '\n';
  }
  if (!*out) return Status::IOError("stream error while writing SPMF");
  return Status::OK();
}

Status WriteTimestampedSpmfFile(const TransactionDatabase& db,
                                const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for write");
  return WriteTimestampedSpmf(db, &out);
}

}  // namespace rpm
