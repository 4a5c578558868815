#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "rpm/common/random.h"
#include "rpm/common/string_util.h"
#include "rpm/timeseries/io/spmf_io.h"
#include "rpm/timeseries/io/timestamped_csv_io.h"
#include "rpm/timeseries/tdb_builder.h"
#include "test_util.h"

namespace rpm {
namespace {

TEST(SpmfPlainTest, ReadsLineNumberTimestamps) {
  std::istringstream in("a b g\na c d\n");
  Result<TransactionDatabase> db = ReadSpmf(&in);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ(db->transaction(0).ts, 1);
  EXPECT_EQ(db->transaction(1).ts, 2);
  EXPECT_EQ(db->transaction(0).items.size(), 3u);
  EXPECT_EQ(db->dictionary().NameOf(0), "a");
}

TEST(SpmfPlainTest, SkipsCommentsAndBlanks) {
  std::istringstream in("# header\n\n% note\n@meta\na b\n");
  Result<TransactionDatabase> db = ReadSpmf(&in);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 1u);
}

TEST(SpmfPlainTest, NumericIdsMode) {
  std::istringstream in("5 3 9\n1 5\n");
  SpmfParseOptions options;
  options.items_are_ids = true;
  Result<TransactionDatabase> db = ReadSpmf(&in, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->transaction(0).items, (Itemset{3, 5, 9}));
  EXPECT_TRUE(db->dictionary().empty());
}

TEST(SpmfPlainTest, RejectsNonNumericInIdsMode) {
  std::istringstream in("5 x\n");
  SpmfParseOptions options;
  options.items_are_ids = true;
  Result<TransactionDatabase> db = ReadSpmf(&in, options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
}

TEST(SpmfTimestampedTest, ParsesExplicitTimestamps) {
  std::istringstream in("1|a b g\n2|a c d\n14|a b g\n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_EQ(db->size(), 3u);
  EXPECT_EQ(db->transaction(2).ts, 14);
}

TEST(SpmfTimestampedTest, GapsInTimestampsPreserved) {
  std::istringstream in("1|a\n9|a\n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->TimestampsOf({0}), (TimestampList{1, 9}));
}

TEST(SpmfTimestampedTest, MissingBarIsCorruption) {
  std::istringstream in("1 a b\n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
}

TEST(SpmfTimestampedTest, BadTimestampIsCorruption) {
  std::istringstream in("xx|a b\n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
}

TEST(SpmfTimestampedTest, EmptyTransactionIsCorruption) {
  std::istringstream in("3|\n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
}

TEST(SpmfRoundTripTest, PaperExampleSurvives) {
  // Re-interning may permute ids ('g' appears in line 1, before 'c'), so
  // the round-trip is compared by item *names* per transaction.
  TransactionDatabase original = rpm::testing::PaperExampleDb();
  std::ostringstream out;
  ASSERT_TRUE(WriteTimestampedSpmf(original, &out).ok());
  std::istringstream in(out.str());
  Result<TransactionDatabase> parsed = ReadTimestampedSpmf(&in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed->transaction(i).ts, original.transaction(i).ts);
    std::vector<std::string> want =
        original.dictionary().NamesOf(original.transaction(i).items);
    std::vector<std::string> got =
        parsed->dictionary().NamesOf(parsed->transaction(i).items);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "ts " << original.transaction(i).ts;
  }
}

TEST(SpmfFileTest, MissingFileIsIOError) {
  Result<TransactionDatabase> db = ReadSpmfFile("/nonexistent/path.txt");
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIOError());
}

TEST(EventCsvTest, ParsesLongFormat) {
  std::istringstream in("timestamp,item\n1,jackets\n1,gloves\n2,jackets\n");
  Result<EventCsvData> data = ReadEventCsv(&in);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->sequence.size(), 3u);
  TransactionDatabase db =
      BuildTdbFromSequence(data->sequence, data->dictionary);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.transaction(0).items.size(), 2u);
  EXPECT_EQ(db.dictionary().NameOf(0), "jackets");
}

TEST(EventCsvTest, NoHeaderOption) {
  std::istringstream in("5,x\n");
  EventCsvOptions options;
  options.has_header = false;
  Result<EventCsvData> data = ReadEventCsv(&in, options);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->sequence.size(), 1u);
  EXPECT_EQ(data->sequence.events()[0].ts, 5);
}

TEST(EventCsvTest, BadTimestampIsCorruption) {
  std::istringstream in("ts,item\nabc,x\n");
  Result<EventCsvData> data = ReadEventCsv(&in);
  ASSERT_FALSE(data.ok());
  EXPECT_TRUE(data.status().IsCorruption());
}

TEST(EventCsvTest, MissingColumnIsCorruption) {
  std::istringstream in("ts,item\n42\n");
  Result<EventCsvData> data = ReadEventCsv(&in);
  ASSERT_FALSE(data.ok());
  EXPECT_TRUE(data.status().IsCorruption());
}

TEST(EventCsvTest, EmptyItemIsCorruption) {
  std::istringstream in("ts,item\n42,\n");
  Result<EventCsvData> data = ReadEventCsv(&in);
  ASSERT_FALSE(data.ok());
  EXPECT_TRUE(data.status().IsCorruption());
}

TEST(EventCsvTest, RoundTrip) {
  EventSequence seq;
  ItemDictionary dict;
  seq.Add(dict.GetOrAdd("x"), 1);
  seq.Add(dict.GetOrAdd("y"), 2);
  seq.Add(dict.GetOrAdd("x"), 3);
  seq.Normalize();

  std::ostringstream out;
  ASSERT_TRUE(WriteEventCsv(seq, dict, &out).ok());
  std::istringstream in(out.str());
  Result<EventCsvData> parsed = ReadEventCsv(&in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->sequence.size(), 3u);
  EXPECT_EQ(parsed->sequence.PointSequenceOf(0), (TimestampList{1, 3}));
}

// --- Reader-boundary invariant enforcement ---------------------------------

TEST(SpmfBoundaryTest, ToleratesCrlfLineEndings) {
  std::istringstream in("1|a b\r\n2|c\r\n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_EQ(db->size(), 2u);
  // The '\r' must not leak into the last item name.
  EXPECT_EQ(db->dictionary().NameOf(db->transaction(0).items.back()), "b");
  EXPECT_EQ(db->dictionary().NameOf(db->transaction(1).items.front()), "c");
}

TEST(SpmfBoundaryTest, ToleratesTrailingWhitespace) {
  std::istringstream in("1|a b  \t \n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->transaction(0).items.size(), 2u);
}

TEST(SpmfBoundaryTest, DuplicateTokensCollapseByDefault) {
  std::istringstream in("1|a a b a\n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_TRUE(db.ok()) << db.status();
  // The transaction invariant (sorted, duplicate-free) holds at the
  // boundary — not just after a downstream builder pass.
  EXPECT_EQ(db->transaction(0).items, (Itemset{0, 1}));
  EXPECT_TRUE(db->Validate().ok());
}

TEST(SpmfBoundaryTest, DuplicateTokensRejectedUnderStrict) {
  std::istringstream in("1|a a b\n");
  SpmfParseOptions options;
  options.strict = true;
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in, options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
  EXPECT_NE(db.status().message().find("duplicate"), std::string::npos);
}

TEST(SpmfBoundaryTest, UnsortedIdsAreSortedAtTheBoundary) {
  std::istringstream in("9 5 3\n");
  SpmfParseOptions options;
  options.items_are_ids = true;
  Result<TransactionDatabase> db = ReadSpmf(&in, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->transaction(0).items, (Itemset{3, 5, 9}));
}

TEST(SpmfBoundaryTest, RejectsReservedInvalidItemId) {
  // 4294967295 == kInvalidItem. Accepting it verbatim used to wrap the
  // item-universe computation (max_id + 1 == 0) and index dense per-item
  // arrays out of bounds in the miners.
  std::istringstream in("1|4294967295\n");
  SpmfParseOptions options;
  options.items_are_ids = true;
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in, options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption());
  EXPECT_NE(db.status().message().find("reserved"), std::string::npos);
}

TEST(EventCsvBoundaryTest, ToleratesCrlfLineEndings) {
  std::istringstream in("timestamp,item\r\n1,a\r\n2,b\r\n");
  Result<EventCsvData> data = ReadEventCsv(&in);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_EQ(data->sequence.size(), 2u);
  EXPECT_EQ(data->dictionary.NameOf(data->sequence.events()[1].item), "b");
}

TEST(EventCsvBoundaryTest, DuplicateEventsCollapseByDefault) {
  std::istringstream in("ts,item\n1,a\n1,a\n2,a\n");
  Result<EventCsvData> data = ReadEventCsv(&in);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_EQ(data->sequence.size(), 2u);
  EXPECT_EQ(data->sequence.PointSequenceOf(0), (TimestampList{1, 2}));
}

TEST(EventCsvBoundaryTest, DuplicateEventsRejectedUnderStrict) {
  std::istringstream in("ts,item\n1,a\n1,a\n");
  EventCsvOptions options;
  options.strict = true;
  Result<EventCsvData> data = ReadEventCsv(&in, options);
  ASSERT_FALSE(data.ok());
  EXPECT_TRUE(data.status().IsCorruption());
  EXPECT_NE(data.status().message().find("duplicate event"),
            std::string::npos);
  EXPECT_NE(data.status().message().find("'a'"), std::string::npos);
}

TEST(EventCsvBoundaryTest, OutOfOrderRowsAreNormalized) {
  std::istringstream in("ts,item\n5,b\n1,a\n3,a\n");
  Result<EventCsvData> data = ReadEventCsv(&in);
  ASSERT_TRUE(data.ok()) << data.status();
  Result<ItemId> a = data->dictionary.Lookup("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(data->sequence.PointSequenceOf(*a), (TimestampList{1, 3}));
  EXPECT_EQ(data->sequence.events().front().ts, 1);
  EXPECT_EQ(data->sequence.events().back().ts, 5);
}

// --- One-pass loader vs a line-by-line reference ---------------------------

/// What a reader produced, in a form two readers can be compared on.
struct Loaded {
  Status status;
  std::vector<Transaction> rows;
  std::vector<std::string> names;  // Dictionary, in id order.
};

Loaded FromResult(const Result<TransactionDatabase>& db) {
  Loaded out;
  if (!db.ok()) {
    out.status = db.status();
    return out;
  }
  out.rows = db->transactions();
  for (size_t id = 0; id < db->dictionary().size(); ++id) {
    out.names.push_back(db->dictionary().NameOf(static_cast<ItemId>(id)));
  }
  return out;
}

Loaded Failed(Status status) {
  Loaded out;
  out.status = std::move(status);
  return out;
}

/// A line-by-line reader with the SPMF semantics the one-pass loader must
/// keep: getline, whitespace splitting, names interned in first-appearance
/// order, rows grouped per timestamp in a std::map, and the same
/// "line N (byte B)" diagnostics.
Loaded ReferenceRead(const std::string& text, bool timestamped,
                     const SpmfParseOptions& options) {
  Loaded out;
  std::istringstream in(text);
  std::map<Timestamp, Itemset> grouped;
  std::unordered_map<std::string, ItemId> ids;
  std::string line;
  size_t line_no = 0;
  uint64_t offset = 0;
  Timestamp plain_ts = 0;
  auto at = [&line_no](uint64_t byte) {
    return "line " + std::to_string(line_no) + " (byte " +
           std::to_string(byte) + ")";
  };
  while (std::getline(in, line)) {
    ++line_no;
    const uint64_t line_offset = offset;
    offset += line.size() + 1;
    const std::string_view trimmed = Trim(line);
    if (options.allow_comments &&
        (trimmed.empty() ||
         std::string_view("#%@").find(trimmed.front()) !=
             std::string_view::npos)) {
      continue;
    }
    std::string_view rest = line;
    Timestamp ts = 0;
    if (timestamped) {
      const size_t bar = line.find('|');
      if (bar == std::string::npos) {
        return Failed(Status::Corruption(
            at(line_offset) + ": missing '|' timestamp separator"));
      }
      const std::string_view ts_text = Trim(rest.substr(0, bar));
      Result<int64_t> parsed = ParseInt64(ts_text);
      if (!parsed.ok()) {
        return Failed(Status::Corruption(
            at(line_offset) + ": bad timestamp token '" +
            std::string(ts_text) + "': " + parsed.status().message()));
      }
      ts = *parsed;
      rest = rest.substr(bar + 1);
    } else {
      ts = ++plain_ts;
    }
    Itemset items;
    for (std::string_view tok : SplitWhitespace(rest)) {
      if (!options.items_are_ids) {
        auto [it, added] = ids.try_emplace(std::string(tok),
                                           static_cast<ItemId>(ids.size()));
        if (added) out.names.emplace_back(tok);
        items.push_back(it->second);
        continue;
      }
      const uint64_t tok_offset =
          line_offset + static_cast<uint64_t>(tok.data() - line.data());
      Result<uint32_t> id = ParseUint32(tok);
      if (!id.ok()) {
        return Failed(Status::Corruption(
            at(tok_offset) + ": bad item token '" + std::string(tok) +
            "': " + id.status().message()));
      }
      if (*id == kInvalidItem) {
        return Failed(Status::Corruption(
            at(tok_offset) + ": item id 4294967295 is the reserved "
                             "invalid-item sentinel"));
      }
      items.push_back(*id);
    }
    if (items.empty()) {
      return Failed(
          Status::Corruption(at(line_offset) + ": transaction with no items"));
    }
    std::sort(items.begin(), items.end());
    const auto dup = std::unique(items.begin(), items.end());
    if (dup != items.end() && options.strict) {
      return Failed(Status::Corruption(at(line_offset) +
                                       ": duplicate item in transaction"));
    }
    items.erase(dup, items.end());
    Itemset& slot = grouped[ts];
    slot.insert(slot.end(), items.begin(), items.end());
  }
  for (auto& [ts, items] : grouped) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    out.rows.push_back({ts, items});
  }
  return out;
}

/// A random input in either format: repeated and out-of-order timestamps
/// across lines, CRLF and LF endings, space and tab runs, comment and blank
/// lines, duplicate tokens, sometimes no final newline and now and then a
/// malformed line.
std::string RandomSpmfText(Rng* rng, bool timestamped, bool ids) {
  static const char* const kNames[] = {"a", "b", "cc", "d1", "e", "zz9"};
  static const char* const kIds[] = {"0", "3", "7", "12", "40", "007"};
  static const char* const kSeparators[] = {" ", "\t", "  ", " \t "};
  static const char* const kOther[] = {"# note", "% meta", "@attr",
                                       "  # indented", "",  " \t"};
  static const char* const kBad[] = {"xx|a",  "4 a",   "3|",    "+2|a",
                                     "5|a x", "6|4294967295", "|a"};
  std::string text;
  const size_t lines = rng->NextUint64(25);
  for (size_t i = 0; i < lines; ++i) {
    const uint64_t kind = rng->NextUint64(100);
    if (kind < 3) {
      text += kBad[rng->NextUint64(std::size(kBad))];
    } else if (kind < 18) {
      text += kOther[rng->NextUint64(std::size(kOther))];
    } else {
      if (timestamped) {
        if (rng->NextBernoulli(0.2)) text += " ";
        text += std::to_string(rng->NextInt64(-3, 12));
        if (rng->NextBernoulli(0.2)) text += "\t";
        text += "|";
      }
      const size_t tokens = 1 + rng->NextUint64(5);
      for (size_t t = 0; t < tokens; ++t) {
        if (t > 0 || rng->NextBernoulli(0.3)) {
          text += kSeparators[rng->NextUint64(std::size(kSeparators))];
        }
        text += ids ? kIds[rng->NextUint64(std::size(kIds))]
                    : kNames[rng->NextUint64(std::size(kNames))];
      }
      if (rng->NextBernoulli(0.2)) text += " ";
    }
    if (i + 1 < lines || rng->NextBernoulli(0.5)) {
      text += rng->NextBernoulli(0.3) ? "\r\n" : "\n";
    }
  }
  return text;
}

TEST(SpmfLoaderTest, MatchesLineByLineReferenceOnRandomFiles) {
  Rng rng(20260417);
  size_t accepted = 0;
  for (int round = 0; round < 2000; ++round) {
    const bool timestamped = rng.NextBernoulli(0.7);
    SpmfParseOptions options;
    options.items_are_ids = rng.NextBernoulli(0.3);
    options.allow_comments = rng.NextBernoulli(0.9);
    options.strict = rng.NextBernoulli(0.2);
    const std::string text =
        RandomSpmfText(&rng, timestamped, options.items_are_ids);
    std::istringstream in(text);
    const Loaded got = FromResult(timestamped
                                      ? ReadTimestampedSpmf(&in, options)
                                      : ReadSpmf(&in, options));
    const Loaded want = ReferenceRead(text, timestamped, options);
    ASSERT_EQ(got.status, want.status) << "round " << round << "\n" << text;
    ASSERT_EQ(got.rows, want.rows) << "round " << round << "\n" << text;
    ASSERT_EQ(got.names, want.names) << "round " << round << "\n" << text;
    if (got.status.ok()) ++accepted;
  }
  // Both outcomes must be well represented for the comparison to mean much.
  EXPECT_GT(accepted, 500u);
  EXPECT_LT(accepted, 1800u);
}

TEST(SpmfLoaderTest, TimestampedErrorCarriesExactLineAndByte) {
  // Lines: "1|a b\n" (bytes 0-5), "# note\r\n" (6-13), "\n" (14),
  // " 4 |c\t d\n" (15-23), "5 e" starts at byte 24.
  std::istringstream missing_bar("1|a b\n# note\r\n\n 4 |c\t d\n5 e\n");
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&missing_bar);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().ToString(),
            "Corruption: line 5 (byte 24): missing '|' timestamp separator");

  std::istringstream bad_ts("1|a\n2|b\r\n 7x |c\n");
  db = ReadTimestampedSpmf(&bad_ts);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().ToString(),
            "Corruption: line 3 (byte 9): bad timestamp token '7x': "
            "not an int64: '7x'");
}

TEST(SpmfLoaderTest, PlainErrorCarriesExactLineAndByte) {
  // Lines: "1 2\n" (bytes 0-3), "\n" (4), "% c\n" (5-8), "3 4x 5" starts
  // at byte 9, so its second token starts at byte 11.
  std::istringstream in("1 2\n\n% c\n3 4x 5\n");
  SpmfParseOptions options;
  options.items_are_ids = true;
  Result<TransactionDatabase> db = ReadSpmf(&in, options);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().ToString(),
            "Corruption: line 4 (byte 11): bad item token '4x': "
            "not a uint32: '4x'");

  std::istringstream empty_line("a\nb\n \t\r\n");
  SpmfParseOptions no_comments;
  no_comments.allow_comments = false;
  db = ReadSpmf(&empty_line, no_comments);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().ToString(),
            "Corruption: line 3 (byte 4): transaction with no items");
}

TEST(SpmfLoaderTest, StreamAndFileEntryPointsAgree) {
  const std::string text =
      "# exported\r\n9|b a\r\n2|c\n\n9|d\t a\n-1|b\n2|c e";
  const std::string path = ::testing::TempDir() + "/io_test_entry.tspmf";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  std::istringstream in(text);
  const Loaded from_stream = FromResult(ReadTimestampedSpmf(&in));
  const Loaded from_file = FromResult(ReadTimestampedSpmfFile(path));
  ASSERT_TRUE(from_stream.status.ok()) << from_stream.status;
  EXPECT_EQ(from_file.status, from_stream.status);
  EXPECT_EQ(from_file.rows, from_stream.rows);
  EXPECT_EQ(from_file.names, from_stream.names);
  ASSERT_EQ(from_stream.rows.size(), 3u);  // ts -1, 2 and 9, merged.

  const std::string plain_path = ::testing::TempDir() + "/io_test_entry.spmf";
  {
    std::ofstream out(plain_path, std::ios::binary);
    out << "a b\r\n% c\nb c\n";
  }
  std::istringstream plain_in("a b\r\n% c\nb c\n");
  EXPECT_EQ(FromResult(ReadSpmfFile(plain_path)).rows,
            FromResult(ReadSpmf(&plain_in)).rows);
}

/// Serves its bytes, then fails the way a device error does: the next
/// request for more input throws.
class FailingBuffer : public std::streambuf {
 public:
  explicit FailingBuffer(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("device error"); }

 private:
  std::string bytes_;
};

TEST(SpmfLoaderTest, DeviceErrorReportsLastCompleteLine) {
  // The partial third line is never parsed; the error points just past
  // the last complete line.
  FailingBuffer buffer("1|a\n2|b\n3|c");
  std::istream in(&buffer);
  Result<TransactionDatabase> db = ReadTimestampedSpmf(&in);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().ToString(),
            "IOError: stream error while reading SPMF at line 2 (byte 8)");
  EXPECT_TRUE(in.bad());
}

}  // namespace
}  // namespace rpm
