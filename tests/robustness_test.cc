// Anytime-mining contract tests: a tripped RunBudget stops an engine at
// a safe boundary with a *certified* partial result (downward-closed
// theory, antichain borders, only actually-evaluated negative-border
// members), and Resume* continues from the checkpoint to output
// bit-identical to a never-interrupted run — at every possible trip
// point, for every checkpointing engine (levelwise, Dualize-and-Advance,
// Apriori, the partition miner).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "common/run_budget.h"
#include "core/audit.h"
#include "core/checkpoint.h"
#include "core/dualize_advance.h"
#include "core/levelwise.h"
#include "mining/apriori.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/sharded_db.h"

namespace hgm {
namespace {

/// Figure 1 of the paper: the 2-frequent sets are exactly the subsets of
/// {ABC, BD}.
TransactionDatabase Fig1Database() {
  return TransactionDatabase::FromRows(4, {{0, 1, 2},
                                           {0, 1, 2},
                                           {1, 3},
                                           {1, 3},
                                           {0, 3}});
}

TransactionDatabase SmallQuestDatabase(uint64_t seed) {
  Rng rng(seed);
  QuestParams params;
  params.num_transactions = 120;
  params.num_items = 12;
  params.avg_transaction_size = 4;
  return GenerateQuest(params, &rng);
}

/// Every one-smaller subset of every member must also be a member.
bool DownwardClosed(const std::vector<Bitset>& family) {
  std::set<Bitset> members(family.begin(), family.end());
  for (const Bitset& x : family) {
    for (size_t i = 0; i < x.size(); ++i) {
      if (!x.Test(i)) continue;
      Bitset sub = x;
      sub.Reset(i);
      if (members.find(sub) == members.end()) return false;
    }
  }
  return true;
}

bool IsSubsetFamily(const std::vector<Bitset>& part,
                    const std::vector<Bitset>& whole) {
  std::set<Bitset> w(whole.begin(), whole.end());
  return std::all_of(part.begin(), part.end(),
                     [&](const Bitset& x) { return w.count(x) > 0; });
}

void ExpectSameLevelwise(const LevelwiseResult& a, const LevelwiseResult& b) {
  EXPECT_EQ(a.theory, b.theory);
  EXPECT_EQ(a.positive_border, b.positive_border);
  EXPECT_EQ(a.negative_border, b.negative_border);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.candidates_per_level, b.candidates_per_level);
  EXPECT_EQ(a.interesting_per_level, b.interesting_per_level);
  EXPECT_EQ(a.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(b.stop_reason, StopReason::kCompleted);
}

TEST(RobustnessLevelwiseTest, QueryBudgetTripsToCertifiedPrefix) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle clean_oracle(&db, 2);
  LevelwiseResult clean = RunLevelwise(&clean_oracle);
  ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);
  ASSERT_GT(clean.queries, 1u);

  for (uint64_t q = 1; q < clean.queries; ++q) {
    FrequencyOracle oracle(&db, 2);
    LevelwiseOptions opts;
    opts.budget.max_queries = q;
    LevelwiseResult part = RunLevelwise(&oracle, opts);
    ASSERT_EQ(part.stop_reason, StopReason::kQueryBudget) << "cap " << q;
    EXPECT_LE(part.queries, q);
    ASSERT_TRUE(part.checkpoint.has_value());

    PartialTheory pt = AsPartialTheory(part);
    EXPECT_EQ(pt.stop_reason, StopReason::kQueryBudget);
    EXPECT_TRUE(DownwardClosed(pt.theory)) << "cap " << q;
    EXPECT_TRUE(audit::AuditAntichain(pt.positive_border, "partial Bd+"));
    EXPECT_TRUE(audit::AuditAntichain(pt.negative_border, "partial Bd-"));
    // Certification: the prefix never claims sets the full run refutes.
    EXPECT_TRUE(IsSubsetFamily(pt.theory, clean.theory));
    EXPECT_TRUE(IsSubsetFamily(pt.negative_border, clean.negative_border));
  }
}

TEST(RobustnessLevelwiseTest, ResumeIsBitIdenticalAtEveryTripPoint) {
  TransactionDatabase db = SmallQuestDatabase(11);
  FrequencyOracle clean_oracle(&db, 6);
  LevelwiseResult clean = RunLevelwise(&clean_oracle);

  for (uint64_t q = 1; q < clean.queries; ++q) {
    FrequencyOracle oracle(&db, 6);
    LevelwiseOptions opts;
    opts.budget.max_queries = q;
    LevelwiseResult part = RunLevelwise(&oracle, opts);
    ASSERT_NE(part.stop_reason, StopReason::kCompleted) << "cap " << q;
    ASSERT_TRUE(part.checkpoint.has_value());

    FrequencyOracle resumed_oracle(&db, 6);
    auto resumed = ResumeLevelwise(&resumed_oracle, *part.checkpoint);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    ExpectSameLevelwise(clean, *resumed);
  }
}

TEST(RobustnessLevelwiseTest, CancelledTokenStopsAtFirstBoundary) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle oracle(&db, 2);
  CancellationSource source;
  source.RequestCancel();
  LevelwiseOptions opts;
  opts.budget.cancel = source.token();
  LevelwiseResult part = RunLevelwise(&oracle, opts);
  EXPECT_EQ(part.stop_reason, StopReason::kCancelled);
  // The ∅ probe precedes budget enforcement: the certified prefix is
  // never empty, so a cancelled run still answers for level 0.
  EXPECT_EQ(part.queries, 1u);
  ASSERT_TRUE(part.checkpoint.has_value());

  // A cancelled run resumes exactly like a budget-tripped one.
  FrequencyOracle resumed_oracle(&db, 2);
  auto resumed = ResumeLevelwise(&resumed_oracle, *part.checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  FrequencyOracle clean_oracle(&db, 2);
  ExpectSameLevelwise(RunLevelwise(&clean_oracle), *resumed);
}

TEST(RobustnessLevelwiseTest, MemoryBudgetTripsBeforeTheBigLevel) {
  TransactionDatabase db = SmallQuestDatabase(3);
  FrequencyOracle oracle(&db, 4);
  LevelwiseOptions opts;
  // One candidate bitset of width 12 packs into 2 bytes; a 1-byte cap
  // cannot admit any level, so the run trips on the very first batch.
  opts.budget.max_candidate_bytes = 1;
  LevelwiseResult part = RunLevelwise(&oracle, opts);
  EXPECT_EQ(part.stop_reason, StopReason::kMemoryBudget);
  // Only the ∅ probe (charged before enforcement begins) ran.
  EXPECT_EQ(part.queries, 1u);
  ASSERT_TRUE(part.checkpoint.has_value());
}

TEST(RobustnessDualizeAdvanceTest, TripAndResumeAtEveryQueryCap) {
  TransactionDatabase db = Fig1Database();
  FrequencyOracle clean_oracle(&db, 2);
  DualizeAdvanceResult clean = RunDualizeAdvance(&clean_oracle);
  ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);

  for (uint64_t q = 1; q < clean.queries; ++q) {
    FrequencyOracle oracle(&db, 2);
    DualizeAdvanceOptions opts;
    opts.budget.max_queries = q;
    DualizeAdvanceResult part = RunDualizeAdvance(&oracle, opts);
    if (part.stop_reason == StopReason::kCompleted) continue;
    ASSERT_TRUE(part.checkpoint.has_value());
    // Discovered maximal sets are genuinely maximal: an antichain, and a
    // subfamily of the full run's positive border.
    EXPECT_TRUE(audit::AuditAntichain(part.positive_border, "D&A partial"));
    EXPECT_TRUE(IsSubsetFamily(part.positive_border, clean.positive_border));

    FrequencyOracle resumed_oracle(&db, 2);
    auto resumed = ResumeDualizeAdvance(&resumed_oracle, *part.checkpoint);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_EQ(resumed->positive_border, clean.positive_border);
    EXPECT_EQ(resumed->negative_border, clean.negative_border);
    EXPECT_EQ(resumed->queries, clean.queries);
    EXPECT_EQ(resumed->iterations, clean.iterations);
    EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
  }
}

void ExpectSameApriori(const AprioriResult& a, const AprioriResult& b) {
  ASSERT_EQ(a.frequent.size(), b.frequent.size());
  for (size_t i = 0; i < a.frequent.size(); ++i) {
    EXPECT_EQ(a.frequent[i].items, b.frequent[i].items) << "index " << i;
    EXPECT_EQ(a.frequent[i].support, b.frequent[i].support) << "index " << i;
  }
  EXPECT_EQ(a.maximal, b.maximal);
  EXPECT_EQ(a.negative_border, b.negative_border);
  EXPECT_EQ(a.support_counts, b.support_counts);
  EXPECT_EQ(a.candidates_per_level, b.candidates_per_level);
  EXPECT_EQ(a.frequent_per_level, b.frequent_per_level);
}

TEST(RobustnessAprioriTest, ResumeIsBitIdenticalAtEveryTripPoint) {
  TransactionDatabase db = Fig1Database();
  AprioriResult clean = MineFrequentSets(&db, 2);
  ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);

  for (uint64_t q = 1; q < clean.support_counts; ++q) {
    AprioriOptions opts;
    opts.budget.max_queries = q;
    AprioriResult part = MineFrequentSets(&db, 2, opts);
    if (part.stop_reason == StopReason::kCompleted) continue;
    ASSERT_TRUE(part.checkpoint.has_value()) << "cap " << q;
    EXPECT_LE(part.support_counts, q);
    EXPECT_TRUE(audit::AuditAntichain(part.maximal, "apriori partial Bd+"));

    auto resumed = ResumeFrequentSets(&db, *part.checkpoint);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
    ExpectSameApriori(clean, *resumed);
  }
}

TEST(RobustnessAprioriTest, PreItemScanTripStillCheckpointsItsState) {
  // Regression: a trip before the item scan (only ∅ counted) must still
  // serialize the level-0 state — an early checkpoint whose sections were
  // captured after the result moved out lost ∅ and shifted every
  // per-level tally on resume.
  TransactionDatabase db = Fig1Database();
  AprioriOptions opts;
  opts.budget.max_queries = 1;
  AprioriResult part = MineFrequentSets(&db, 2, opts);
  ASSERT_EQ(part.stop_reason, StopReason::kQueryBudget);
  ASSERT_TRUE(part.checkpoint.has_value());
  const std::vector<CheckpointEntry>* freq =
      part.checkpoint->FindSection("frequent");
  ASSERT_NE(freq, nullptr);
  ASSERT_EQ(freq->size(), 1u);
  EXPECT_EQ((*freq)[0].items.Count(), 0u);
  EXPECT_EQ((*freq)[0].value, db.num_transactions());
}

// On-disk compatibility: tests/data holds the checkpoint text an earlier
// build wrote for a mid-run query-budget trip on SmallQuestDatabase(17)
// at minsup 5 (cap = half the uninterrupted run's queries).  This build
// must write the same bytes for the same trip and resume each file to the
// uninterrupted result bit for bit, so kinds "apriori", "levelwise" and
// "partition" (K = 3 shards) keep their scalars, sections and order.
std::string ReadTestData(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(__FILE__).parent_path() / "data" / name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(RobustnessCheckpointCompatTest, AprioriGoldenCheckpointResumes) {
  TransactionDatabase db = SmallQuestDatabase(17);
  const std::string golden = ReadTestData("apriori_budget_trip.ckpt");
  AprioriResult clean = MineFrequentSets(&db, 5);
  AprioriOptions opts;
  opts.budget.max_queries = clean.support_counts / 2;
  AprioriResult part = MineFrequentSets(&db, 5, opts);
  ASSERT_TRUE(part.checkpoint.has_value());
  EXPECT_EQ(SerializeCheckpoint(*part.checkpoint), golden);

  Result<Checkpoint> cp = ParseCheckpoint(golden);
  ASSERT_TRUE(cp.ok()) << cp.status().message();
  auto resumed = ResumeFrequentSets(&db, *cp);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
  ExpectSameApriori(clean, *resumed);
}

TEST(RobustnessCheckpointCompatTest, UnsortedFrontierIsRejected) {
  // The join needs its frontier sorted; a checkpoint that is not is
  // refused rather than silently mined wrong.
  TransactionDatabase db = SmallQuestDatabase(17);
  Result<Checkpoint> cp =
      ParseCheckpoint(ReadTestData("levelwise_budget_trip.ckpt"));
  ASSERT_TRUE(cp.ok()) << cp.status().message();
  for (auto& [name, entries] : cp->sections) {
    if (name == "frontier") std::swap(entries[0], entries[1]);
  }
  FrequencyOracle oracle(&db, 5);
  EXPECT_FALSE(ResumeLevelwise(&oracle, *cp).ok());
}

TEST(RobustnessCheckpointCompatTest, LevelwiseGoldenCheckpointResumes) {
  TransactionDatabase db = SmallQuestDatabase(17);
  const std::string golden = ReadTestData("levelwise_budget_trip.ckpt");
  FrequencyOracle oracle(&db, 5);
  LevelwiseResult clean = RunLevelwise(&oracle);
  LevelwiseOptions opts;
  opts.budget.max_queries = clean.queries / 2;
  LevelwiseResult part = RunLevelwise(&oracle, opts);
  ASSERT_TRUE(part.checkpoint.has_value());
  EXPECT_EQ(SerializeCheckpoint(*part.checkpoint), golden);

  Result<Checkpoint> cp = ParseCheckpoint(golden);
  ASSERT_TRUE(cp.ok()) << cp.status().message();
  auto resumed = ResumeLevelwise(&oracle, *cp);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  ExpectSameLevelwise(clean, *resumed);
}

TEST(RobustnessCheckpointCompatTest, PartitionGoldenCheckpointResumes) {
  TransactionDatabase db = SmallQuestDatabase(17);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 3);
  const std::string golden = ReadTestData("partition_budget_trip.ckpt");
  PartitionResult clean = MinePartitioned(&sharded, 5);
  PartitionOptions opts;
  opts.budget.max_queries = clean.phase2_evaluations / 2;
  PartitionResult part = MinePartitioned(&sharded, 5, opts);
  ASSERT_TRUE(part.checkpoint.has_value());
  EXPECT_EQ(SerializeCheckpoint(*part.checkpoint), golden);

  Result<Checkpoint> cp = ParseCheckpoint(golden);
  ASSERT_TRUE(cp.ok()) << cp.status().message();
  auto resumed = ResumePartition(&sharded, *cp);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
  ASSERT_EQ(resumed->frequent.size(), clean.frequent.size());
  for (size_t i = 0; i < clean.frequent.size(); ++i) {
    EXPECT_EQ(resumed->frequent[i].items, clean.frequent[i].items);
    EXPECT_EQ(resumed->frequent[i].support, clean.frequent[i].support);
  }
  EXPECT_EQ(resumed->maximal, clean.maximal);
  EXPECT_EQ(resumed->negative_border, clean.negative_border);
  EXPECT_EQ(resumed->candidate_union_size, clean.candidate_union_size);
  EXPECT_EQ(resumed->phase2_evaluations, clean.phase2_evaluations);
  EXPECT_EQ(resumed->phase2_reused, clean.phase2_reused);
  EXPECT_EQ(resumed->phase2_levels, clean.phase2_levels);
  EXPECT_EQ(resumed->phase2_rejected, clean.phase2_rejected);
  EXPECT_EQ(resumed->local_thresholds, clean.local_thresholds);
  EXPECT_EQ(resumed->local_frequent_per_shard,
            clean.local_frequent_per_shard);
}

TEST(RobustnessPartitionTest, ResumeIsBitIdenticalAtEveryTripPoint) {
  TransactionDatabase db = SmallQuestDatabase(17);
  AprioriResult reference = MineFrequentSets(&db, 5);

  for (size_t shards : {size_t{2}, size_t{3}}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, shards);
    PartitionResult clean = MinePartitioned(&sharded, 5);
    ASSERT_EQ(clean.stop_reason, StopReason::kCompleted);
    ASSERT_TRUE(clean.status.ok());

    for (uint64_t q = 1; q <= clean.phase2_evaluations; ++q) {
      PartitionOptions opts;
      opts.budget.max_queries = q;
      PartitionResult part = MinePartitioned(&sharded, 5, opts);
      if (part.stop_reason == StopReason::kCompleted) continue;
      ASSERT_TRUE(part.checkpoint.has_value())
          << "shards " << shards << " cap " << q;

      auto resumed = ResumePartition(&sharded, *part.checkpoint);
      ASSERT_TRUE(resumed.ok()) << resumed.status().message();
      EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
      ASSERT_EQ(resumed->frequent.size(), clean.frequent.size());
      for (size_t i = 0; i < clean.frequent.size(); ++i) {
        EXPECT_EQ(resumed->frequent[i].items, clean.frequent[i].items);
        EXPECT_EQ(resumed->frequent[i].support, clean.frequent[i].support);
      }
      EXPECT_EQ(resumed->maximal, clean.maximal);
      EXPECT_EQ(resumed->negative_border, clean.negative_border);
      EXPECT_EQ(resumed->phase2_levels, clean.phase2_levels);
      EXPECT_EQ(resumed->phase2_rejected, clean.phase2_rejected);
      // The checkpoint carries the exact-count-reuse state, so the
      // pass/reuse split of the combined run matches the clean one.
      EXPECT_EQ(resumed->phase2_evaluations, clean.phase2_evaluations);
      EXPECT_EQ(resumed->phase2_reused, clean.phase2_reused);
    }
    // And the clean sharded run agrees with Apriori field for field.
    ASSERT_EQ(clean.frequent.size(), reference.frequent.size());
  }
}

TEST(RobustnessPartitionTest, PartialNegativeBorderIsCertified) {
  TransactionDatabase db = SmallQuestDatabase(17);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  PartitionResult clean = MinePartitioned(&sharded, 5);

  for (uint64_t q = 1; q <= clean.phase2_evaluations; ++q) {
    PartitionOptions opts;
    opts.budget.max_queries = q;
    PartitionResult part = MinePartitioned(&sharded, 5, opts);
    if (part.stop_reason == StopReason::kCompleted) continue;
    PartialTheory pt = AsPartialTheory(part);
    EXPECT_TRUE(DownwardClosed(pt.theory)) << "cap " << q;
    EXPECT_TRUE(audit::AuditAntichain(pt.positive_border, "part Bd+"));
    EXPECT_TRUE(audit::AuditAntichain(pt.negative_border, "part Bd-"));
    // Partial Bd- members were individually counted and rejected, so
    // each is genuinely infrequent in the full store.
    for (const Bitset& x : pt.negative_border) {
      EXPECT_LT(db.Support(x), 5u);
    }
  }
}

void ExpectSamePartition(const PartitionResult& a, const PartitionResult& b) {
  ASSERT_EQ(a.frequent.size(), b.frequent.size());
  for (size_t i = 0; i < a.frequent.size(); ++i) {
    EXPECT_EQ(a.frequent[i].items, b.frequent[i].items);
    EXPECT_EQ(a.frequent[i].support, b.frequent[i].support);
  }
  EXPECT_EQ(a.maximal, b.maximal);
  EXPECT_EQ(a.negative_border, b.negative_border);
  EXPECT_EQ(a.phase2_evaluations, b.phase2_evaluations);
  EXPECT_EQ(a.phase2_reused, b.phase2_reused);
  EXPECT_EQ(a.phase2_levels, b.phase2_levels);
  EXPECT_EQ(a.phase2_rejected, b.phase2_rejected);
}

TEST(RobustnessPartitionTest, DeadlinePassedInPhaseOneTripsPhaseTwoAtOnce) {
  // One wall-clock deadline spans both phases: when it passes while the
  // shards are mined, phase 2 trips at its first boundary, before even
  // ∅ is decided, and the checkpoint resumes to the uninterrupted result.
  TransactionDatabase db = SmallQuestDatabase(17);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 3);
  PartitionResult clean = MinePartitioned(&sharded, 5);
  PartitionOptions opts;
  opts.budget.max_duration = std::chrono::milliseconds(50);
  opts.shard_fault_hook = [](size_t shard, size_t /*attempt*/) {
    if (shard == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
  };
  PartitionResult part = MinePartitioned(&sharded, 5, opts);
  EXPECT_EQ(part.stop_reason, StopReason::kDeadline);
  EXPECT_TRUE(part.frequent.empty());
  EXPECT_TRUE(part.negative_border.empty());
  EXPECT_EQ(part.phase2_evaluations, 0u);
  EXPECT_EQ(part.phase2_levels, 0u);
  EXPECT_EQ(part.candidate_union_size, clean.candidate_union_size);
  ASSERT_TRUE(part.checkpoint.has_value());
  uint64_t v = 0;
  ASSERT_TRUE(part.checkpoint->GetScalar("phase1_done", &v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(part.checkpoint->GetScalar("next_level", &v));
  EXPECT_EQ(v, 0u);

  auto resumed = ResumePartition(&sharded, *part.checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->stop_reason, StopReason::kCompleted);
  ExpectSamePartition(clean, *resumed);
}

TEST(RobustnessPartitionTest, StoppedResumeKeepsTheCheckpointedPrefix) {
  // A resumed run replays the checkpointed levels without a budget
  // check, so a run stopped at once still returns the whole checkpointed
  // prefix and writes back the checkpoint it was given.
  TransactionDatabase db = SmallQuestDatabase(17);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 3);
  PartitionResult clean = MinePartitioned(&sharded, 5);
  PartitionOptions opts;
  opts.budget.max_queries = clean.phase2_evaluations / 2;
  PartitionResult part = MinePartitioned(&sharded, 5, opts);
  ASSERT_NE(part.stop_reason, StopReason::kCompleted);
  ASSERT_TRUE(part.checkpoint.has_value());
  ASSERT_GT(part.frequent.size(), 1u);

  PartitionOptions stop;
  CancellationSource source;
  stop.budget.cancel = source.token();
  source.RequestCancel();
  auto resumed = ResumePartition(&sharded, *part.checkpoint, stop);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->stop_reason, StopReason::kCancelled);
  ASSERT_EQ(resumed->frequent.size(), part.frequent.size());
  for (size_t i = 0; i < part.frequent.size(); ++i) {
    EXPECT_EQ(resumed->frequent[i].items, part.frequent[i].items);
    EXPECT_EQ(resumed->frequent[i].support, part.frequent[i].support);
  }
  EXPECT_EQ(resumed->maximal, part.maximal);
  EXPECT_EQ(resumed->negative_border, part.negative_border);
  ASSERT_TRUE(resumed->checkpoint.has_value());
  EXPECT_EQ(SerializeCheckpoint(*resumed->checkpoint),
            SerializeCheckpoint(*part.checkpoint));
}

TEST(RobustnessPartitionTest, RefusesExactCountsOutsideTheUnion) {
  // The union section alone names the candidates; a union_sums or
  // union_masks entry for another set is refused, not adopted.
  TransactionDatabase db = SmallQuestDatabase(17);
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 3);
  Result<Checkpoint> golden =
      ParseCheckpoint(ReadTestData("partition_budget_trip.ckpt"));
  ASSERT_TRUE(golden.ok()) << golden.status().message();
  ASSERT_TRUE(ResumePartition(&sharded, *golden).ok());
  Bitset stray(db.num_items());
  for (size_t i = 0; i < db.num_items(); ++i) stray.Set(i);
  for (const char* section : {"union_sums", "union_masks"}) {
    Checkpoint cp = *golden;
    bool added = false;
    for (auto& [name, entries] : cp.sections) {
      if (name == section) {
        entries.push_back({stray, 1000});
        added = true;
      }
    }
    ASSERT_TRUE(added) << section;
    EXPECT_FALSE(ResumePartition(&sharded, cp).ok()) << section;
  }
}

TEST(RobustnessResumeTest, RejectsMismatchedCheckpointKinds) {
  TransactionDatabase db = Fig1Database();
  AprioriOptions opts;
  opts.budget.max_queries = 2;
  AprioriResult part = MineFrequentSets(&db, 2, opts);
  ASSERT_TRUE(part.checkpoint.has_value());

  FrequencyOracle oracle(&db, 2);
  auto as_levelwise = ResumeLevelwise(&oracle, *part.checkpoint);
  EXPECT_FALSE(as_levelwise.ok());
  auto as_dualize = ResumeDualizeAdvance(&oracle, *part.checkpoint);
  EXPECT_FALSE(as_dualize.ok());
  ShardedTransactionDatabase sharded =
      ShardedTransactionDatabase::Split(db, 2);
  auto as_partition = ResumePartition(&sharded, *part.checkpoint);
  EXPECT_FALSE(as_partition.ok());
}

TEST(RobustnessResumeTest, CheckpointSurvivesSerializeParseRoundTrip) {
  // Resume through the text format, not just the in-memory object — the
  // CLI's --checkpoint/--resume path.
  TransactionDatabase db = SmallQuestDatabase(11);
  FrequencyOracle oracle(&db, 6);
  LevelwiseOptions opts;
  opts.budget.max_queries = 30;
  LevelwiseResult part = RunLevelwise(&oracle, opts);
  ASSERT_NE(part.stop_reason, StopReason::kCompleted);
  ASSERT_TRUE(part.checkpoint.has_value());

  auto reparsed = ParseCheckpoint(SerializeCheckpoint(*part.checkpoint));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  FrequencyOracle resumed_oracle(&db, 6);
  auto resumed = ResumeLevelwise(&resumed_oracle, *reparsed);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  FrequencyOracle clean_oracle(&db, 6);
  ExpectSameLevelwise(RunLevelwise(&clean_oracle), *resumed);
}

// Pins the clamp contract documented on RetryPolicy: max_backoff_us is a
// hard per-attempt ceiling on DelayUs under ANY configuration — no
// exponent growth, jitter draw, or saturating sum may exceed it, wrap
// past it, or turn into a surprise tiny sleep.
TEST(RetryPolicyClampTest, DelayNeverExceedsMaxBackoff) {
  const uint64_t bases[] = {1, 1000, uint64_t{1} << 40, uint64_t{1} << 62,
                            std::numeric_limits<uint64_t>::max()};
  const uint64_t caps[] = {1, 999, 100000, uint64_t{1} << 63,
                           std::numeric_limits<uint64_t>::max()};
  for (uint64_t base : bases) {
    for (uint64_t cap : caps) {
      RetryPolicy policy;
      policy.base_backoff_us = base;
      policy.max_backoff_us = cap;
      for (size_t attempt = 0; attempt < 130; attempt += 13) {
        for (uint64_t salt = 0; salt < 3; ++salt) {
          const uint64_t delay = policy.DelayUs(attempt, salt);
          EXPECT_LE(delay, cap)
              << "base=" << base << " cap=" << cap
              << " attempt=" << attempt << " salt=" << salt;
        }
      }
    }
  }
}

TEST(RetryPolicyClampTest, ZeroBaseDisablesSleeping) {
  RetryPolicy policy;
  policy.base_backoff_us = 0;
  policy.max_backoff_us = 100000;
  for (size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(policy.DelayUs(attempt, 7), 0u);
  }
}

TEST(RetryPolicyClampTest, ScheduleIsSeedDeterministicAndGrows) {
  RetryPolicy policy;
  policy.base_backoff_us = 100;
  policy.max_backoff_us = 1u << 20;
  RetryPolicy replay = policy;
  uint64_t prev_floor = 0;
  for (size_t attempt = 0; attempt < 8; ++attempt) {
    const uint64_t delay = policy.DelayUs(attempt, 42);
    // Same (seed, salt, attempt) replays the same schedule — the chaos
    // suite's reproducibility hinges on this.
    EXPECT_EQ(delay, replay.DelayUs(attempt, 42));
    // Exponential floor: attempt a waits at least base * 2^a (pre-cap),
    // and jitter adds at most 100% on top.
    const uint64_t floor = std::min<uint64_t>(100u << attempt,
                                              policy.max_backoff_us);
    EXPECT_GE(delay, floor);
    EXPECT_LE(delay, std::min<uint64_t>(2 * floor, policy.max_backoff_us));
    EXPECT_GE(floor, prev_floor);
    prev_floor = floor;
  }
}

}  // namespace
}  // namespace hgm
