// WindowedMiner: the incremental sliding-window miner against batch
// re-mining of the live window, delta-diff semantics, window-boundary
// edge cases, budget governance and compaction. The differential harness
// (cross_check.cc check (f)) hammers the same equivalence on generated
// cases; these tests pin the specific contracts and the corner cases a
// random stream rarely hits.

#include "rpm/core/windowed_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "rpm/core/rp_growth.h"
#include "rpm/core/time_gap.h"
#include "test_util.h"

namespace rpm {
namespace {

using ::rpm::testing::MakeRandomDb;
using ::rpm::testing::PaperExampleDb;
using ::rpm::testing::PaperExampleParams;
using ::rpm::testing::RandomDbSpec;

std::vector<RecurringPattern> BatchMine(const TransactionDatabase& db,
                                        const RpParams& params) {
  return MineRecurringPatterns(db, params).patterns;
}

/// (prev − removed − changed-old) ∪ changed-new ∪ added must equal the
/// committed set exactly — the documented PatternDelta identity.
void ExpectDiffReconstructs(const std::vector<RecurringPattern>& prev,
                            const PatternDelta& pd,
                            const std::vector<RecurringPattern>& committed) {
  std::vector<Itemset> dropped;
  for (const RecurringPattern& p : pd.removed) dropped.push_back(p.items);
  for (const RecurringPattern& p : pd.changed) dropped.push_back(p.items);
  std::sort(dropped.begin(), dropped.end());
  std::vector<RecurringPattern> rebuilt;
  for (const RecurringPattern& p : prev) {
    if (!std::binary_search(dropped.begin(), dropped.end(), p.items)) {
      rebuilt.push_back(p);
    }
  }
  rebuilt.insert(rebuilt.end(), pd.changed.begin(), pd.changed.end());
  rebuilt.insert(rebuilt.end(), pd.added.begin(), pd.added.end());
  SortPatternsCanonically(&rebuilt);
  EXPECT_EQ(rebuilt, committed);
}

/// Replays `db` through a miner in `delta`-sized batches, asserting the
/// windowed ≡ batch equivalence and the diff identity after every delta.
void ReplayAndCheck(const TransactionDatabase& db, const RpParams& params,
                    Timestamp window, size_t delta,
                    const WindowedMinerOptions& options = {}) {
  WindowedMiner miner(params, window, options);
  const std::vector<Transaction>& txns = db.transactions();
  std::vector<RecurringPattern> prev;
  for (size_t offset = 0; offset < txns.size(); offset += delta) {
    const size_t end = std::min(txns.size(), offset + delta);
    std::vector<Transaction> batch(txns.begin() + offset, txns.begin() + end);
    PatternDelta pd = miner.ApplyDelta(batch);
    ASSERT_TRUE(pd.applied) << pd.status.ToString() << " at offset " << offset;
    ExpectDiffReconstructs(prev, pd, miner.patterns());
    EXPECT_EQ(miner.patterns(), BatchMine(miner.WindowSnapshot(), params))
        << "window=" << window << " delta=" << delta << " offset=" << offset;
    prev = miner.patterns();
  }
}

// The grouped-burst stream: kGroups groups of 4 items fire in round-robin
// bursts of kBurstLen consecutive timestamps, so each group recurs in 5
// intervals per window of kGroupedWindowTxns transactions (per 1). An
// item drops out where (t + 31 i) mod 23 == 0, which splits intervals and
// drifts supports as the window slides. In each window-long epoch one
// group also carries an epoch item that never recurs, so its tree nodes
// retire once the window has slid past it.
constexpr size_t kGroups = 24;
constexpr size_t kBurstLen = 8;
constexpr size_t kGroupedWindowTxns = kGroups * kBurstLen * 5;

TransactionDatabase GroupedBurstDb(size_t num_txns) {
  constexpr size_t kItemsPerGroup = 4;
  std::vector<std::pair<Timestamp, Itemset>> rows;
  for (size_t t = 0; t < num_txns; ++t) {
    Itemset items;
    const size_t group = (t / kBurstLen) % kGroups;
    for (size_t i = 0; i < kItemsPerGroup; ++i) {
      if ((t + 31 * i) % 23 == 0) continue;
      items.push_back(static_cast<ItemId>(group * kItemsPerGroup + i));
    }
    const size_t epoch = t / kGroupedWindowTxns;
    if (group == epoch % kGroups) {
      items.push_back(
          static_cast<ItemId>(kGroups * kItemsPerGroup + epoch % 4));
    }
    rows.emplace_back(static_cast<Timestamp>(t), std::move(items));
  }
  return MakeDatabase(std::move(rows));
}

RpParams GroupedBurstParams() {
  RpParams params;
  params.period = 1;
  params.min_ps = 4;
  params.min_rec = 2;
  return params;
}

TEST(WindowedMinerTest, SingleDeltaEqualsBatchOnPaperExample) {
  const TransactionDatabase db = PaperExampleDb();
  WindowedMiner miner(PaperExampleParams(), /*window=*/1000);
  PatternDelta pd = miner.ApplyDelta(db.transactions());
  ASSERT_TRUE(pd.applied) << pd.status.ToString();
  // Nothing expires: the whole database is the window, so the result is
  // the full Table 2 set and the diff is pure additions.
  EXPECT_EQ(miner.patterns(), BatchMine(db, PaperExampleParams()));
  EXPECT_EQ(pd.added, miner.patterns());
  EXPECT_TRUE(pd.removed.empty());
  EXPECT_TRUE(pd.changed.empty());
  EXPECT_EQ(miner.live_transactions(), db.size());
  EXPECT_EQ(miner.now(), Timestamp{14});
  EXPECT_EQ(miner.low_watermark(), Timestamp{14 - 1000});
}

TEST(WindowedMinerTest, PerTransactionDeltasMatchBatchOnPaperExample) {
  ReplayAndCheck(PaperExampleDb(), PaperExampleParams(), /*window=*/6,
                 /*delta=*/1);
}

TEST(WindowedMinerTest, SlidingWindowMatchesBatchAcrossSeeds) {
  RandomDbSpec spec;
  RpParams params;
  params.period = 3;
  params.min_ps = 2;
  params.min_rec = 2;
  for (uint64_t seed : {1u, 2u, 3u}) {
    const TransactionDatabase db = MakeRandomDb(spec, seed);
    ASSERT_FALSE(db.empty());
    const Timestamp span = SaturatingGap(db.transactions().front().ts,
                                         db.transactions().back().ts);
    for (size_t delta : {size_t{1}, size_t{5}, size_t{17}}) {
      ReplayAndCheck(db, params, std::max<Timestamp>(1, span / 3), delta);
    }
  }
  // One burst per delta (window/delta = 120) and window/delta = 20, over
  // two and a half windows of the grouped-burst stream.
  const TransactionDatabase grouped =
      GroupedBurstDb(kGroupedWindowTxns * 5 / 2);
  for (size_t delta : {kBurstLen, kGroupedWindowTxns / 20}) {
    ReplayAndCheck(grouped, GroupedBurstParams(),
                   static_cast<Timestamp>(kGroupedWindowTxns - 1), delta);
  }
}

TEST(WindowedMinerTest, WindowStartIsInclusive) {
  // window=4, last ts 10 => cutoff 6; the transaction AT ts 6 stays live.
  RpParams params;
  params.period = 2;
  params.min_ps = 2;
  params.min_rec = 1;
  WindowedMiner miner(params, /*window=*/4);
  PatternDelta pd = miner.ApplyDelta(
      {{2, {0}}, {4, {0}}, {6, {0}}, {8, {0}}, {10, {0}}});
  ASSERT_TRUE(pd.applied);
  EXPECT_EQ(miner.low_watermark(), Timestamp{6});
  EXPECT_EQ(miner.live_transactions(), 3u);
  const TransactionDatabase window = miner.WindowSnapshot();
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.transactions().front().ts, Timestamp{6});
  EXPECT_EQ(miner.patterns(), BatchMine(window, params));
}

TEST(WindowedMinerTest, BatchWiderThanWindowSelfExpires) {
  // The first transactions of one batch fall below the batch's own final
  // cutoff: they must count as appended AND expired, and the live window
  // holds only the tail.
  RpParams params;
  params.period = 1;
  params.min_ps = 2;
  params.min_rec = 1;
  WindowedMiner miner(params, /*window=*/2);
  PatternDelta pd =
      miner.ApplyDelta({{1, {0}}, {2, {0}}, {9, {0}}, {10, {0}}});
  ASSERT_TRUE(pd.applied);
  EXPECT_EQ(pd.appended_transactions, 4u);
  EXPECT_EQ(pd.expired_transactions, 2u);
  EXPECT_EQ(miner.live_transactions(), 2u);
  EXPECT_EQ(miner.low_watermark(), Timestamp{8});
  EXPECT_EQ(miner.patterns(), BatchMine(miner.WindowSnapshot(), params));
}

TEST(WindowedMinerTest, AdvanceToExpiresWithoutAppending) {
  RpParams params;
  params.period = 2;
  params.min_ps = 2;
  params.min_rec = 1;
  WindowedMiner miner(params, /*window=*/4);
  ASSERT_TRUE(miner.ApplyDelta({{2, {0}}, {4, {0}}, {6, {0}}}).applied);
  ASSERT_EQ(miner.live_transactions(), 3u);

  std::vector<RecurringPattern> before = miner.patterns();
  PatternDelta pd = miner.AdvanceTo(9);
  ASSERT_TRUE(pd.applied) << pd.status.ToString();
  EXPECT_EQ(pd.appended_transactions, 0u);
  EXPECT_EQ(pd.expired_transactions, 2u);
  EXPECT_EQ(miner.now(), Timestamp{9});
  EXPECT_EQ(miner.low_watermark(), Timestamp{5});
  EXPECT_EQ(miner.live_transactions(), 1u);
  ExpectDiffReconstructs(before, pd, miner.patterns());
  EXPECT_EQ(miner.patterns(), BatchMine(miner.WindowSnapshot(), params));

  // Time cannot flow backwards.
  PatternDelta back = miner.AdvanceTo(8);
  EXPECT_FALSE(back.applied);
  EXPECT_TRUE(back.status.IsInvalidArgument());
  EXPECT_EQ(miner.now(), Timestamp{9});
}

TEST(WindowedMinerTest, RejectsMalformedBatches) {
  RpParams params;
  params.period = 2;
  params.min_ps = 1;
  params.min_rec = 1;
  WindowedMiner miner(params, /*window=*/100);
  ASSERT_TRUE(miner.ApplyDelta({{5, {0, 1}}}).applied);
  const std::vector<RecurringPattern> committed = miner.patterns();
  const uint64_t deltas_before = miner.counters().deltas_applied;

  // Each refusal must leave the miner exactly at the committed state.
  const std::vector<std::vector<Transaction>> bad = {
      {{7, {0}}, {6, {0}}},     // Not strictly increasing within the batch.
      {{5, {0}}},               // Not greater than the last applied ts.
      {{8, {1, 0}}},            // Items out of order.
      {{8, {0, 0}}},            // Duplicate item.
      {{8, {kInvalidItem}}},    // Sentinel item.
  };
  for (const std::vector<Transaction>& batch : bad) {
    PatternDelta pd = miner.ApplyDelta(batch);
    EXPECT_FALSE(pd.applied);
    EXPECT_TRUE(pd.status.IsInvalidArgument()) << pd.status.ToString();
    EXPECT_EQ(miner.patterns(), committed);
    EXPECT_EQ(miner.counters().deltas_applied, deltas_before);
  }
  // The miner still accepts a well-formed delta afterwards.
  EXPECT_TRUE(miner.ApplyDelta({{8, {0}}}).applied);
}

TEST(WindowedMinerTest, PreCancelledBudgetRefusesAndPreservesState) {
  const TransactionDatabase db = PaperExampleDb();
  WindowedMiner miner(PaperExampleParams(), /*window=*/1000);
  std::vector<Transaction> first(db.transactions().begin(),
                                 db.transactions().begin() + 6);
  std::vector<Transaction> second(db.transactions().begin() + 6,
                                  db.transactions().end());
  ASSERT_TRUE(miner.ApplyDelta(first).applied);
  const std::vector<RecurringPattern> committed = miner.patterns();
  const Timestamp now = miner.now();

  CancellationToken cancel;
  cancel.Cancel();
  QueryBudget budget(ResourceLimits{}, &cancel);
  PatternDelta pd = miner.ApplyDelta(second, &budget);
  EXPECT_FALSE(pd.applied);
  EXPECT_TRUE(pd.status.IsCancelled()) << pd.status.ToString();
  EXPECT_TRUE(pd.added.empty());
  EXPECT_EQ(miner.patterns(), committed);
  EXPECT_EQ(miner.now(), now);

  // The refused batch is still appendable: nothing was staged.
  PatternDelta retry = miner.ApplyDelta(second);
  ASSERT_TRUE(retry.applied) << retry.status.ToString();
  EXPECT_EQ(miner.patterns(), BatchMine(db, PaperExampleParams()));
}

TEST(WindowedMinerTest, CompactionFiresAndPreservesEquivalence) {
  RpParams params;
  params.period = 2;
  params.min_ps = 1;
  params.min_rec = 1;
  WindowedMinerOptions options;
  options.compact_min_stored = 8;
  options.compact_live_fraction = 0.6;
  WindowedMiner miner(params, /*window=*/6, options);
  for (Timestamp ts = 0; ts < 120; ts += 2) {
    // Item 2 stops occurring at ts 30: once the window slides past its
    // last event, the per-delta tree's item-2 node loses every timestamp
    // and must be retired (items 0/1 always have live events, so their
    // nodes never empty).
    const Itemset items =
        ts < 30 ? Itemset{0, 1, 2} : Itemset{0, 1};
    PatternDelta pd = miner.ApplyDelta({{ts, items}});
    ASSERT_TRUE(pd.applied);
    EXPECT_EQ(miner.patterns(), BatchMine(miner.WindowSnapshot(), params));
  }
  EXPECT_GT(miner.counters().compactions, 0u);
  EXPECT_GT(miner.counters().transactions_expired, 0u);
  EXPECT_GT(miner.counters().nodes_retired, 0u);
}

TEST(WindowedMinerTest, Int64ExtremeTimestampsAreHandled) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  RpParams params;
  params.period = 1;
  params.min_ps = 2;
  params.min_rec = 1;

  // Unbounded window: nothing ever expires, even across the full range.
  WindowedMiner wide(params, /*window=*/kMax);
  ASSERT_TRUE(wide.ApplyDelta({{kMin, {0}}, {kMin + 1, {0}}}).applied);
  EXPECT_EQ(wide.low_watermark(), kMin);
  ASSERT_TRUE(wide.ApplyDelta({{-1, {0}}, {0, {0}}}).applied);
  // now=0, window=kMax: the inclusive window [now - kMax, 0] starts at
  // kMin + 1, so exactly the kMin transaction expires — the boundary
  // arithmetic must not wrap.
  EXPECT_EQ(wide.low_watermark(), kMin + 1);
  EXPECT_EQ(wide.live_transactions(), 3u);
  EXPECT_EQ(wide.patterns(), BatchMine(wide.WindowSnapshot(), params));

  // Tight window at the top of the range.
  WindowedMiner tight(params, /*window=*/2);
  ASSERT_TRUE(tight.ApplyDelta({{kMin, {0}}, {kMin + 1, {0}}}).applied);
  ASSERT_TRUE(tight.ApplyDelta({{kMax - 1, {0}}, {kMax, {0}}}).applied);
  EXPECT_EQ(tight.low_watermark(), kMax - 2);
  EXPECT_EQ(tight.live_transactions(), 2u);
  EXPECT_EQ(tight.patterns(), BatchMine(tight.WindowSnapshot(), params));
}

TEST(WindowedMinerTest, EmptyBatchIsNoOpBeforeAndAfterFirstDelta) {
  RpParams params;
  params.period = 2;
  params.min_ps = 1;
  params.min_rec = 1;
  WindowedMiner miner(params, /*window=*/10);
  PatternDelta pd = miner.ApplyDelta({});
  EXPECT_TRUE(pd.applied);
  EXPECT_TRUE(pd.added.empty());
  EXPECT_EQ(miner.counters().deltas_applied, 0u);

  ASSERT_TRUE(miner.ApplyDelta({{1, {0}}, {2, {0}}}).applied);
  const std::vector<RecurringPattern> committed = miner.patterns();
  pd = miner.ApplyDelta({});
  EXPECT_TRUE(pd.applied);
  EXPECT_TRUE(pd.added.empty() && pd.removed.empty() && pd.changed.empty());
  EXPECT_EQ(miner.patterns(), committed);
}

/// Feeds `db` to a fresh miner in `delta`-transaction batches and
/// returns its counters.
WindowedCounters ReplayCounters(const TransactionDatabase& db,
                                const RpParams& params, Timestamp window,
                                size_t delta) {
  WindowedMiner miner(params, window);
  const std::vector<Transaction>& txns = db.transactions();
  for (size_t offset = 0; offset < txns.size(); offset += delta) {
    const size_t end = std::min(txns.size(), offset + delta);
    std::vector<Transaction> batch(txns.begin() + offset, txns.begin() + end);
    EXPECT_TRUE(miner.ApplyDelta(batch).applied);
  }
  return miner.counters();
}

TEST(WindowedMinerTest, CountersAreScheduleInvariantAcrossDeltaSizes) {
  // The maintenance counters describe the stream and the window, not the
  // delta schedule... with the exception of deltas_applied and the
  // subproblem accounting, which by design depend on batching, and node
  // retirement and compaction, which are lazy. Feed the same stream in
  // two delta sizes and compare the stream-describing subset.
  const WindowedCounters by_one =
      ReplayCounters(PaperExampleDb(), PaperExampleParams(), 5, 1);
  const WindowedCounters by_three =
      ReplayCounters(PaperExampleDb(), PaperExampleParams(), 5, 3);
  EXPECT_EQ(by_one.timestamps_appended, by_three.timestamps_appended);
  EXPECT_EQ(by_one.timestamps_retired, by_three.timestamps_retired);
  EXPECT_EQ(by_one.transactions_expired, by_three.transactions_expired);
  EXPECT_EQ(by_one.deltas_applied, 12u);
  EXPECT_EQ(by_three.deltas_applied, 4u);

  // The grouped-burst stream expires whole epochs, so retirement runs.
  const TransactionDatabase grouped =
      GroupedBurstDb(kGroupedWindowTxns * 5 / 2);
  const Timestamp window = static_cast<Timestamp>(kGroupedWindowTxns - 1);
  const WindowedCounters by_burst =
      ReplayCounters(grouped, GroupedBurstParams(), window, kBurstLen);
  const WindowedCounters coarse = ReplayCounters(
      grouped, GroupedBurstParams(), window, kGroupedWindowTxns / 20);
  EXPECT_GT(by_burst.nodes_retired, 0u);
  EXPECT_EQ(by_burst.timestamps_appended, coarse.timestamps_appended);
  EXPECT_EQ(by_burst.timestamps_retired, coarse.timestamps_retired);
  EXPECT_EQ(by_burst.transactions_expired, coarse.transactions_expired);
}

TEST(WindowedMinerTest, MaxPatternLengthIsForwardedToSubMines) {
  const TransactionDatabase db = PaperExampleDb();
  WindowedMinerOptions options;
  options.max_pattern_length = 1;
  WindowedMiner miner(PaperExampleParams(), /*window=*/1000, options);
  ASSERT_TRUE(miner.ApplyDelta(db.transactions()).applied);
  for (const RecurringPattern& p : miner.patterns()) {
    EXPECT_LE(p.items.size(), 1u);
  }
  RpGrowthOptions mopt;
  mopt.max_pattern_length = 1;
  EXPECT_EQ(miner.patterns(),
            MineRecurringPatterns(db, PaperExampleParams(), mopt).patterns);
}

}  // namespace
}  // namespace rpm
