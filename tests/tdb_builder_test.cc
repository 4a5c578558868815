#include "rpm/timeseries/tdb_builder.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::A;
using ::rpm::testing::B;
using ::rpm::testing::C;
using ::rpm::testing::D;

TEST(TdbBuilderTest, GroupsEventsByTimestamp) {
  TdbBuilder builder;
  builder.AddEvent(B, 5);
  builder.AddEvent(A, 5);
  builder.AddEvent(C, 7);
  TransactionDatabase db = builder.Build();
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.transaction(0).ts, 5);
  EXPECT_EQ(db.transaction(0).items, (Itemset{A, B}));
  EXPECT_EQ(db.transaction(1).items, (Itemset{C}));
}

TEST(TdbBuilderTest, DeduplicatesItemsWithinTimestamp) {
  TdbBuilder builder;
  builder.AddEvent(A, 1);
  builder.AddEvent(A, 1);
  TransactionDatabase db = builder.Build();
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.transaction(0).items, (Itemset{A}));
}

TEST(TdbBuilderTest, OutOfOrderTimestampsAreSorted) {
  TdbBuilder builder;
  builder.AddEvent(A, 100);
  builder.AddEvent(B, 2);
  builder.AddEvent(C, 50);
  TransactionDatabase db = builder.Build();
  ASSERT_EQ(db.size(), 3u);
  EXPECT_EQ(db.transaction(0).ts, 2);
  EXPECT_EQ(db.transaction(1).ts, 50);
  EXPECT_EQ(db.transaction(2).ts, 100);
  EXPECT_TRUE(db.Validate().ok());
}

TEST(TdbBuilderTest, AddTransactionMergesIntoExistingTimestamp) {
  TdbBuilder builder;
  builder.AddTransaction(3, {A});
  builder.AddTransaction(3, {B, C});
  TransactionDatabase db = builder.Build();
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.transaction(0).items, (Itemset{A, B, C}));
}

TEST(TdbBuilderTest, MergesRepeatedTimestampsArrivingOutOfOrder) {
  TdbBuilder builder;
  builder.AddTransaction(5, {C, A});
  builder.AddTransaction(2, {});
  builder.AddEvent(B, 3);
  builder.AddTransaction(5, {A, B});
  builder.AddTransaction(2, {});  // Still no events at ts 2: no row.
  builder.AddEvent(D, 3);
  TransactionDatabase db = builder.Build();
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.transaction(0), (Transaction{3, {B, D}}));
  EXPECT_EQ(db.transaction(1), (Transaction{5, {A, B, C}}));
  // The builder is reusable after an out-of-order batch.
  builder.AddEvent(A, 1);
  EXPECT_EQ(builder.Build().transaction(0), (Transaction{1, {A}}));
}

TEST(TdbBuilderTest, BuildResetsBuilder) {
  TdbBuilder builder;
  builder.AddEvent(A, 1);
  EXPECT_EQ(builder.PendingTransactions(), 1u);
  (void)builder.Build();
  EXPECT_EQ(builder.PendingTransactions(), 0u);
  TransactionDatabase second = builder.Build();
  EXPECT_TRUE(second.empty());
}

TEST(TdbBuilderTest, NegativeTimestampsSupported) {
  TdbBuilder builder;
  builder.AddEvent(A, -5);
  builder.AddEvent(B, 0);
  TransactionDatabase db = builder.Build();
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.start_ts(), -5);
}

TEST(BuildTdbFromSequenceTest, LosslessConversion) {
  // Definition 2's losslessness: TS^X in the TDB equals the point sequence
  // of X in the TSD.
  EventSequence seq;
  for (Timestamp ts : {1, 2, 3, 4, 7, 11, 12, 14}) seq.Add(A, ts);
  for (Timestamp ts : {1, 3, 4, 7, 11, 12, 14}) seq.Add(B, ts);
  seq.Normalize();
  TransactionDatabase db = BuildTdbFromSequence(seq);
  EXPECT_EQ(db.TimestampsOf({A}), seq.PointSequenceOf(A));
  EXPECT_EQ(db.TimestampsOf({B}), seq.PointSequenceOf(B));
  // And the joint pattern's point sequence matches Example 1's S_ab.
  EXPECT_EQ(db.TimestampsOf({A, B}), (TimestampList{1, 3, 4, 7, 11, 12, 14}));
}

TEST(MakeDatabaseTest, BuildsPaperTable1) {
  TransactionDatabase db = rpm::testing::PaperExampleDb();
  ASSERT_EQ(db.size(), 12u);
  // Spot-check the ts=12 transaction: all seven items.
  const Transaction* t12 = nullptr;
  for (const Transaction& tr : db.transactions()) {
    if (tr.ts == 12) t12 = &tr;
  }
  ASSERT_NE(t12, nullptr);
  EXPECT_EQ(t12->items.size(), 7u);
}

TEST(MakeDatabaseTest, EmptyRowsProduceEmptyDb) {
  TransactionDatabase db = MakeDatabase({});
  EXPECT_TRUE(db.empty());
}

}  // namespace
}  // namespace rpm
