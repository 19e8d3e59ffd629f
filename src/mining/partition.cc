#include "mining/partition.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/cancellation.h"
#include "common/thread_annotations.h"
#include "core/audit.h"
#include "core/levelwise.h"
#include "core/theory.h"
#include "hypergraph/hypergraph.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

namespace {

/// Exact-count bookkeeping for one candidate-union member, accumulated as
/// shards finish: \c sum is the total of the exact local supports from
/// every shard whose local theory contained the set, \c mask the bitmask
/// of those shards (meaningful for < 64 shards; reuse is disabled above
/// that).  Both are order-independent (sums and ORs commute), so the
/// streamed merge is bit-identical at any thread count.
struct CandAgg {
  uint64_t sum = 0;
  uint64_t mask = 0;
};

/// Shard count up to which per-candidate shard presence fits the uint64
/// mask; beyond it phase 2 falls back to counting every candidate in
/// every shard (still exact, just without the reuse shortcut).
constexpr size_t kMaxReuseShards = 64;

/// The phase-1 streaming union: shard tasks merge their local theories in
/// as they finish, and the accumulated map is moved out exactly once
/// after the phase-1 join.  Wrapping map + mutex in one class makes the
/// phase discipline static — concurrent code can only reach the map
/// through the locked Merge(), and phase 2 only through Take(), so an
/// unlocked mid-phase read (the append-vs-read race this layer is meant
/// to rule out) no longer typechecks under -Wthread-safety.
class StreamingUnion {
 public:
  /// Streams one shard's local theory in.  Sums and presence masks are
  /// order-independent, so the merged result is bit-identical regardless
  /// of shard completion order.
  void Merge(size_t shard, const std::vector<FrequentItemset>& frequent)
      HGM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (const FrequentItemset& f : frequent) {
      CandAgg& a = agg_[f.items];
      a.sum += f.support;
      if (shard < kMaxReuseShards) a.mask |= uint64_t{1} << shard;
    }
  }

  /// Moves the accumulated union out.  Called once, after every shard
  /// task has joined; the lock is taken anyway so the hand-off is safe
  /// even if a caller ever misuses it.
  std::unordered_map<Bitset, CandAgg, BitsetHash> Take() HGM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return std::move(agg_);
  }

 private:
  Mutex mu_;
  std::unordered_map<Bitset, CandAgg, BitsetHash> agg_ HGM_GUARDED_BY(mu_);
};

/// Everything a partition run carries across the phase-1 / phase-2 split —
/// and everything a "partition" checkpoint must capture besides what the
/// level driver holds.
struct PartitionState {
  PartitionResult result;
  size_t min_support = 1;
  size_t n = 0;
  /// False until phase 1's union is materialized.  A checkpoint taken
  /// earlier stores no phase-1 output: phase 1 is a pure function of
  /// (shards, min_support), so resume replays it bit-identically.
  bool phase1_done = false;
  /// Size of the candidates phase 2 decides next.  A resumed run replays
  /// the smaller sizes through the level driver, answered from `resumed`.
  size_t next_level = 0;
  /// Per-union-member exact-count aggregation (phase-1 local supports and
  /// shard presence), streamed in as each shard finishes.  Its keys are
  /// the candidate union.
  std::unordered_map<Bitset, CandAgg, BitsetHash> agg;
  /// The sets a resumed checkpoint confirmed, with their supports.
  std::unordered_map<Bitset, size_t, BitsetHash> resumed;
};

void PublishPartitionGauges(const PartitionResult& result) {
  HGM_OBS_GAUGE_SET("partition.last_shards",
                    static_cast<int64_t>(result.num_shards));
  HGM_OBS_GAUGE_SET("partition.last_phase2_evaluations",
                    static_cast<int64_t>(result.phase2_evaluations));
  HGM_OBS_GAUGE_SET("partition.last_phase2_reused",
                    static_cast<int64_t>(result.phase2_reused));
  HGM_OBS_GAUGE_SET("partition.last_theory_size",
                    static_cast<int64_t>(result.frequent.size()));
  HGM_OBS_GAUGE_SET("partition.last_negative_border",
                    static_cast<int64_t>(result.negative_border.size()));
}

/// The sets \p levels confirmed, with their supports, canonically sorted.
std::vector<FrequentItemset> Confirmed(const LevelState& levels) {
  std::vector<FrequentItemset> frequent;
  frequent.reserve(levels.result.theory.size());
  for (size_t i = 0; i < levels.result.theory.size(); ++i) {
    frequent.push_back({levels.result.theory[i],
                        static_cast<size_t>(levels.theory_values[i])});
  }
  SortFrequent(&frequent);
  return frequent;
}

/// The union members \p levels decided infrequent — each by an exact
/// support, so certified members of Bd-(Th) — canonically sorted.  Sets
/// outside the union were ruled out by the partition lemma, not a count.
std::vector<Bitset> Rejected(const PartitionState& state,
                             const LevelState& levels) {
  std::vector<Bitset> rejected;
  for (const Bitset& x : levels.result.negative_border) {
    if (state.agg.contains(x)) rejected.push_back(x);
  }
  CanonicalSort(&rejected);
  return rejected;
}

/// Freezes \p state, with phase 2's decisions so far in \p levels, into a
/// kind="partition" checkpoint.
Checkpoint MakePartitionCheckpoint(const PartitionState& state,
                                   const LevelState& levels) {
  Checkpoint cp;
  cp.kind = "partition";
  cp.width = state.n;
  const PartitionResult& result = state.result;
  cp.SetScalar("min_support", state.min_support);
  cp.SetScalar("phase1_done", state.phase1_done ? 1 : 0);
  cp.SetScalar("next_level", state.next_level);
  cp.SetScalar("phase2_evaluations", result.phase2_evaluations);
  cp.SetScalar("phase2_reused", result.phase2_reused);
  cp.SetScalar("phase2_levels", result.phase2_levels);
  cp.SetScalar("phase2_rejected", result.phase2_rejected);
  cp.SetScalar("num_shards", result.num_shards);
  cp.SetScalar("shard_retries", result.shard_retries);
  cp.SetScalar("unavailable", result.status.ok() ? 0 : 1);
  if (!state.phase1_done) return cp;
  AddCountSection(&cp, "local_thresholds", result.local_thresholds);
  AddCountSection(&cp, "local_frequent_per_shard",
                  result.local_frequent_per_shard);
  AddCountSection(&cp, "failed_shards", result.failed_shards);
  // The union is serialized canonically sorted, never straight out of a
  // hash map, so the checkpoint bytes are a pure function of the mining
  // state.
  std::vector<Bitset> union_flat;
  for (const auto& [x, a] : state.agg) union_flat.push_back(x);
  CanonicalSort(&union_flat);
  AddSetSection(&cp, "union", union_flat);
  // The exact-count-reuse state rides along, keyed in the same canonical
  // order as the union section, so a resumed run reuses (or re-counts)
  // exactly the candidates the uninterrupted run would have.
  std::vector<CheckpointEntry>* sums = cp.AddSection("union_sums");
  std::vector<CheckpointEntry>* masks = cp.AddSection("union_masks");
  for (const Bitset& x : union_flat) {
    const CandAgg& a = state.agg.at(x);
    sums->push_back({x, a.sum});
    masks->push_back({x, a.mask});
  }
  std::vector<CheckpointEntry>* conf = cp.AddSection("confirmed");
  for (const FrequentItemset& f : Confirmed(levels)) {
    conf->push_back({f.items, f.support});
  }
  // Resume needs only `confirmed` and the union; this section documents
  // the partial negative border.
  AddSetSection(&cp, "rejected", Rejected(state, levels));
  return cp;
}

/// Packages a trip as a certified partial result from phase 2's decisions
/// so far (\p levels; empty before phase 2): the confirmed sets are
/// downward closed, `maximal` is their antichain of maximal elements, and
/// `negative_border` holds only the union members certified infrequent by
/// an exact support.  \p checkpoint defaults to this state's.
PartitionResult FinishPartial(PartitionState* state, StopReason reason,
                              const LevelState& levels,
                              std::optional<Checkpoint> checkpoint = {}) {
  PartitionResult& result = state->result;
  result.stop_reason = reason;
  result.checkpoint = checkpoint ? std::move(checkpoint)
                                 : MakePartitionCheckpoint(*state, levels);
  result.frequent = Confirmed(levels);
  result.negative_border = Rejected(*state, levels);
  result.maximal.clear();
  for (const FrequentItemset& f : result.frequent) {
    result.maximal.push_back(f.items);
  }
  AntichainMaximize(&result.maximal);
  CanonicalSort(&result.maximal);
  audit::AuditAntichain(result.maximal, "partition.partial_maximal");
  audit::AuditAntichain(result.negative_border,
                        "partition.partial_negative_border");
  HGM_OBS_COUNT("robustness.partial_results", 1);
  PublishPartitionGauges(result);
  return std::move(result);
}

/// Phase 1 with failover: mines every not-yet-done shard, collects the
/// shards whose task threw, and re-mines only those in later rounds with
/// the policy's seeded backoff.  CancelledError propagates (phase 1 is
/// discarded whole on cancellation).  Returns false when shards remain
/// failed after max_attempts; those land in result.failed_shards and the
/// run is marked Unavailable.
///
/// Each shard's local theory streams into the shared union/exact-count
/// aggregation the moment that shard finishes (under a mutex; sums and
/// presence masks are order-independent, so the merge is deterministic),
/// instead of being held whole until a post-phase-1 union barrier.
///
/// Scheduling adapts to the shard/thread ratio: with at least as many
/// pending shards as pool threads, one shard runs per ParallelFor task
/// (each local Apriori on an inline 1-thread pool); with fewer shards
/// than threads, the shards run one after another and each local Apriori
/// gets the whole pool — so K < T no longer pins the run to one thread.
/// Either way each shard's mining is a pure function of (shard rows,
/// local threshold), so the merged result is identical.
bool MineShardsWithFailover(ShardedTransactionDatabase* db,
                            PartitionState* state,
                            const PartitionOptions& options, ThreadPool* pool) {
  PartitionResult& result = state->result;
  const size_t num_shards = db->num_shards();
  const size_t max_attempts =
      options.retry.max_attempts < 1 ? 1 : options.retry.max_attempts;
  std::vector<size_t> attempts(num_shards, 0);
  std::vector<size_t> pending(num_shards);
  for (size_t k = 0; k < num_shards; ++k) pending[k] = k;
  StreamingUnion streamed;
  // Mines shard k and streams its local theory into the union; returns
  // false when the task threw (a shard fault).  CancelledError escapes.
  auto mine_one = [&](size_t k, const AprioriOptions& local_options) {
    obs::TraceSpan shard_span("partition.shard", "mining",
                              {{"shard", k},
                               {"threshold", result.local_thresholds[k]},
                               {"attempt", attempts[k]}});
    AprioriResult local;
    try {
      if (options.shard_fault_hook) {
        options.shard_fault_hook(k, attempts[k]);
      }
      local = MineFrequentSets(&db->shard(k), result.local_thresholds[k],
                               local_options);
    } catch (const CancelledError&) {
      throw;  // cancellation is not a shard fault
    } catch (const std::exception&) {
      HGM_OBS_COUNT("robustness.shard_faults", 1);
      shard_span.AddArg("failed", 1);
      return false;
    }
    streamed.Merge(k, local.frequent);
    result.local_frequent_per_shard[k] = local.frequent.size();
    HGM_OBS_COUNT("partition.local_frequent", local.frequent.size());
    shard_span.AddArg("frequent", local.frequent.size());
    return true;
  };
  while (!pending.empty()) {
    std::vector<uint8_t> failed(num_shards, 0);
    AprioriOptions local_options;
    local_options.record_all = true;
    // Local maximal sets are never consumed — the global maximal family
    // comes from the confirmed theory — so skip the per-level sweep.
    local_options.compute_maximal = false;
    if (pending.size() < pool->num_threads()) {
      // Fewer shards than threads: run them back to back, each on the
      // full pool, checking cancellation at the shard boundary.
      local_options.pool = pool;
      for (size_t k : pending) {
        options.budget.cancel.ThrowIfCancelled("partition.phase1");
        if (!mine_one(k, local_options)) failed[k] = 1;
      }
    } else {
      // A 1-thread pool always runs its chunk inline, so the local
      // Apriori runs never issue a nested ParallelFor onto the outer
      // pool's batch state.
      ThreadPool seq(1);
      local_options.pool = &seq;
      pool->ParallelFor(
          pending.size(),
          [&](size_t begin, size_t end, size_t /*chunk*/) {
            for (size_t i = begin; i < end; ++i) {
              const size_t k = pending[i];
              if (!mine_one(k, local_options)) failed[k] = 1;
            }
          },
          options.budget.cancel);
    }
    pending.clear();
    for (size_t k = 0; k < num_shards; ++k) {
      if (!failed[k]) continue;
      if (attempts[k] + 1 >= max_attempts) {
        result.failed_shards.push_back(k);
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kShardFailover, "partition.shard",
            static_cast<int64_t>(k), static_cast<int64_t>(max_attempts));
        continue;
      }
      ++attempts[k];
      ++result.shard_retries;
      HGM_OBS_COUNT("robustness.retries", 1);
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kShardRetry, "partition.shard",
          static_cast<int64_t>(k), static_cast<int64_t>(attempts[k]));
      const uint64_t delay_us = options.retry.DelayUs(attempts[k] - 1, k);
      if (options.sleeper) {
        options.sleeper(delay_us);
      } else if (delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
      pending.push_back(k);
    }
  }
  // Phase-1 join: every shard task has finished (ParallelFor blocked on
  // them), so the union hand-off is single-threaded from here on.
  state->agg = streamed.Take();
  if (!result.failed_shards.empty()) {
    std::string dropped;
    for (size_t k : result.failed_shards) {
      if (!dropped.empty()) dropped += ",";
      dropped += std::to_string(k);
    }
    result.status = Status::Unavailable(
        "shard(s) " + dropped + " failed after " +
        std::to_string(max_attempts) +
        " attempts; result is the surviving shards' certified union");
    return false;
  }
  return true;
}

/// Phase 2 as the level driver's evaluator.  A candidate outside the
/// phase-1 union is infrequent by the partition lemma, free.  One locally
/// frequent in every (non-empty surviving) shard has as its support the
/// sum of the exact per-shard counts phase 1 paid for (the rows
/// partition), free, and is always confirmed (the local thresholds sum to
/// >= min_support).  The rest are counted only in the shards where their
/// contribution is unknown, charged.  Levels a resumed run replays are
/// answered from its confirmed sets and leave the counters alone.
class Phase2Evaluator {
 public:
  Phase2Evaluator(ShardedTransactionDatabase* db, PartitionState* state,
                  ThreadPool* pool)
      : db_(db),
        state_(state),
        pool_(pool),
        reuse_enabled_(db->num_shards() <= kMaxReuseShards),
        shard_cands_(db->num_shards()) {
    // Shards whose contribution must be known before a support is exact:
    // empty shards contribute 0.  A failed shard is in no candidate's
    // mask, so its rows are always recounted.
    for (size_t s = 0; reuse_enabled_ && s < db->num_shards(); ++s) {
      if (db->shard(s).num_transactions() > 0) needed_mask_ |= uint64_t{1} << s;
    }
  }

  /// Plans the level; returns how many candidates need a count.
  size_t Triage(const std::vector<Bitset>& candidates) {
    const size_t m = candidates.size();
    known_.assign(m, 0);
    support_.assign(m, 0);
    for (std::vector<size_t>& cands : shard_cands_) cands.clear();
    union_members_ = 0;
    counted_ = 0;
    for (size_t c = 0; c < m; ++c) {
      auto it = state_->agg.find(candidates[c]);
      if (it == state_->agg.end()) continue;
      known_[c] = 1;
      ++union_members_;
      const CandAgg& a = it->second;
      if (reuse_enabled_) {
        support_[c] = static_cast<size_t>(a.sum);
        if ((a.mask & needed_mask_) == needed_mask_) continue;
      }
      ++counted_;
      for (size_t s = 0; s < shard_cands_.size(); ++s) {
        const bool known = reuse_enabled_ && ((a.mask >> s) & 1) != 0;
        if (!known && db_->shard(s).num_transactions() > 0) {
          shard_cands_[s].push_back(c);
        }
      }
    }
    return counted_;
  }

  /// Decides the level Triage planned.
  LevelVerdicts Evaluate(const std::vector<Bitset>& candidates) {
    if (counted_ > 0) Count(candidates);
    LevelVerdicts out{std::vector<uint8_t>(candidates.size(), 0),
                      {support_.begin(), support_.end()}};
    size_t confirmed = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      out.interesting[c] = known_[c] && support_[c] >= state_->min_support;
      confirmed += out.interesting[c];
    }
    if (union_members_ == 0) return out;
    PartitionResult& result = state_->result;
    ++result.phase2_levels;
    result.phase2_evaluations += counted_;
    result.phase2_reused += union_members_ - counted_;
    result.phase2_rejected += union_members_ - confirmed;
    HGM_OBS_COUNT("partition.phase2_candidates", counted_);
    HGM_OBS_COUNT("partition.phase2_reused", union_members_ - counted_);
    return out;
  }

  /// Decides a level the resumed checkpoint already decided: its
  /// confirmed sets, with their supports, are the interesting ones.
  LevelVerdicts Replay(const std::vector<Bitset>& candidates) const {
    LevelVerdicts out{std::vector<uint8_t>(candidates.size(), 0),
                      std::vector<uint64_t>(candidates.size(), 0)};
    for (size_t c = 0; c < candidates.size(); ++c) {
      auto it = state_->resumed.find(candidates[c]);
      if (it == state_->resumed.end()) continue;
      out.interesting[c] = 1;
      out.values[c] = it->second;
    }
    return out;
  }

 private:
  /// Adds each planned candidate's unknown shard contributions to its
  /// support: builds this level's missing prefix covers (serial per shard,
  /// parallel across shards), then counts every (candidate, shard) pair
  /// concurrently against the read-only caches.
  void Count(const std::vector<Bitset>& candidates) {
    const size_t num_shards = shard_cands_.size();
    if (caches_.empty()) {
      db_->EnsureVerticalIndexes();
      for (size_t s = 0; s < num_shards; ++s) {
        caches_.emplace_back(&db_->shard(s));
      }
    }
    // The caches keep only the two prefix generations this level reaches.
    const size_t k = candidates[0].Count();
    std::vector<size_t> work_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      if (!shard_cands_[s].empty()) work_shards.push_back(s);
    }
    pool_->ParallelFor(work_shards.size(),
                       [&](size_t begin, size_t end, size_t /*chunk*/) {
                         for (size_t i = begin; i < end; ++i) {
                           const size_t s = work_shards[i];
                           caches_[s].PruneBelow(k >= 2 ? k - 2 : 0);
                           for (size_t c : shard_cands_[s]) {
                             const Bitset& x = candidates[c];
                             if (x.Count() >= 2) {
                               caches_[s].EnsureCover(
                                   x.WithoutBit(x.FindLast()));
                             }
                           }
                         }
                       });
    std::vector<std::pair<size_t, size_t>> tasks;  // (candidate, shard)
    for (size_t s : work_shards) {
      for (size_t c : shard_cands_[s]) tasks.push_back({c, s});
    }
    std::vector<size_t> partial(tasks.size(), 0);
    pool_->ParallelFor(tasks.size(),
                       [&](size_t begin, size_t end, size_t /*chunk*/) {
                         for (size_t t = begin; t < end; ++t) {
                           partial[t] =
                               caches_[tasks[t].second].CountPrefixCached(
                                   candidates[tasks[t].first]);
                         }
                       });
    for (size_t t = 0; t < tasks.size(); ++t) {
      support_[tasks[t].first] += partial[t];
    }
    HGM_OBS_COUNT("partition.shard_passes", tasks.size());
  }

  ShardedTransactionDatabase* db_;
  PartitionState* state_;
  ThreadPool* pool_;
  const bool reuse_enabled_;
  uint64_t needed_mask_ = 0;
  std::vector<PrefixCoverCache> caches_;  // built at the first count
  // The level Triage planned: known_ marks the union members, support_
  // their supports so far.
  std::vector<uint8_t> known_;
  std::vector<size_t> support_;
  std::vector<std::vector<size_t>> shard_cands_;
  size_t union_members_ = 0;
  size_t counted_ = 0;
};

/// Runs the partition miner from \p state: phase 1 (unless a resumed
/// checkpoint already carries its union) and the budgeted phase-2
/// confirmation on the level driver.  Shared by MinePartitioned and
/// ResumePartition, so an interrupted-then-resumed run walks the exact
/// code path of an uninterrupted one.
PartitionResult RunPartition(ShardedTransactionDatabase* db,
                             PartitionState& state,
                             const PartitionOptions& options) {
  PartitionResult& result = state.result;
  ThreadPool* pool = PoolOrGlobal(options.pool);
  const size_t n = state.n;
  const size_t num_shards = db->num_shards();
  obs::TraceSpan run_span("partition.run", "mining",
                          {{"shards", num_shards},
                           {"rows", db->num_transactions()},
                           {"items", n}});
  BudgetTracker tracker(options.budget, result.phase2_evaluations);

  if (!state.phase1_done) {
    // ---- Phase 1: mine each shard locally at its scaled threshold. ----
    //
    // One shard per ParallelFor index; results land in index-addressed
    // slots, so phase 1 is deterministic at any thread count.  Nothing is
    // recorded before the boundary check, so a trip here leaves a
    // checkpoint that replays phase 1 from scratch — it is a pure
    // function of (shards, min_support), so the replay is bit-identical.
    if (StopReason r = tracker.CheckBoundary(); r != StopReason::kCompleted) {
      return FinishPartial(&state, r, LevelState{});
    }
    result.local_thresholds = db->LocalThresholds(state.min_support);
    result.local_frequent_per_shard.assign(num_shards, 0);
    {
      obs::TraceSpan phase1_span("partition.phase1", "mining",
                                 {{"shards", num_shards}});
      obs::FlightRecorder::Global().Record(obs::FlightEventType::kPhase,
                                           "partition.phase1",
                                           static_cast<int64_t>(num_shards));
      try {
        MineShardsWithFailover(db, &state, options, pool);
      } catch (const CancelledError&) {
        // Cancellation mid-phase-1 discards the phase whole; the partial
        // result is empty and the checkpoint replays phase 1 on resume.
        result.local_thresholds.clear();
        result.local_frequent_per_shard.clear();
        state.agg.clear();
        (void)tracker.CheckBoundary();  // probe only: records the trip counter
        return FinishPartial(&state, StopReason::kCancelled, LevelState{});
      }
    }
    // The union of the per-shard frequent families — downward closed
    // (each family is), and by the partition lemma a superset of every
    // globally frequent set (over the surviving shards, when some
    // failed) — was streamed into state.agg as shards finished.
    result.candidate_union_size = state.agg.size();
    state.phase1_done = true;
    state.next_level = 0;
    (void)obs::SampleMemory();  // phase boundary: the union peaks here
  }
  HGM_OBS_GAUGE_SET("partition.last_candidate_union",
                    static_cast<int64_t>(result.candidate_union_size));

  // ---- Phase 2: confirm the candidate union on the level driver. -----
  obs::TraceSpan phase2_span("partition.phase2", "mining");
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kPhase, "partition.phase2",
      static_cast<int64_t>(result.candidate_union_size));
  Phase2Evaluator phase2(db, &state, pool);
  // Level 0, ∅, is phase 2's first level and meets the budget like the
  // rest: a deadline that passed during phase 1 trips here, before
  // anything is decided.  A resumed run replays it, unchecked, as the
  // driver replays the levels above it up to next_level.
  const std::vector<Bitset> root{Bitset(n)};
  LevelVerdicts root_verdict;
  if (state.next_level == 0) {
    const size_t counted = phase2.Triage(root);
    StopReason r = tracker.CheckBeforeBatch(counted, counted * ((n + 7) / 8));
    if (r != StopReason::kCompleted) {
      return FinishPartial(&state, r, LevelState{});
    }
    tracker.ChargeQueries(counted);
    root_verdict = phase2.Evaluate(root);
  } else {
    root_verdict = phase2.Replay(root);
  }
  LevelEvaluator evaluator;
  evaluator.evaluate = [&phase2](const std::vector<Bitset>& candidates,
                                 const std::vector<JoinParents>&) {
    return phase2.Evaluate(candidates);
  };
  evaluator.triage = [&phase2](const std::vector<Bitset>& candidates) {
    return phase2.Triage(candidates);
  };
  evaluator.replay = [&phase2](const std::vector<Bitset>& candidates) {
    return phase2.Replay(candidates);
  };
  LevelDriverOptions driver;
  driver.width = n;
  // Bd+ comes from the complete theory below in one linear pass.
  driver.compute_maximal = false;
  driver.engine = "partition";
  driver.freeze = [&state](const LevelState& s) {
    state.next_level = s.next_level + 1;
    return MakePartitionCheckpoint(state, s);
  };
  LevelState levels = RootLevel(n, root_verdict.interesting[0],
                                /*record_theory=*/true,
                                root_verdict.values[0]);
  levels.replay_below = state.next_level;
  LevelState done =
      RunLevels(evaluator, driver, &tracker, std::move(levels));
  if (done.result.stop_reason != StopReason::kCompleted) {
    return FinishPartial(&state, done.result.stop_reason, done,
                         std::move(done.result.checkpoint));
  }
  HGM_OBS_COUNT("partition.phase2_rejected", result.phase2_rejected);

  result.frequent = Confirmed(done);
  // Maximal frequent sets (none when even ∅ failed, as in Apriori).  The
  // confirmed theory is downward closed, so one pass over immediate
  // subsets finds them.
  for (const FrequentItemset& f : result.frequent) {
    result.maximal.push_back(f.items);
  }
  DownwardClosedMaximize(&result.maximal);
  CanonicalSort(&result.maximal);
  // Exact Bd-(Th): the driver rejected every minimal infrequent set,
  // whether counted or ruled out by the partition lemma.
  result.negative_border = std::move(done.result.negative_border);

  PublishPartitionGauges(result);
  run_span.AddArg("frequent", result.frequent.size());
  run_span.AddArg("phase2_evaluations", result.phase2_evaluations);
  return std::move(result);
}

}  // namespace

PartitionResult MinePartitioned(ShardedTransactionDatabase* db,
                                size_t min_support,
                                const PartitionOptions& options) {
  // At threshold 0 every subset of the universe is "frequent" — mining
  // the full lattice is never the intent, so clamp like the local
  // thresholds do.
  if (min_support == 0) min_support = 1;
  PartitionState state;
  state.min_support = min_support;
  state.n = db->num_items();
  state.result.num_shards = db->num_shards();
  HGM_OBS_COUNT("partition.runs", 1);
  return RunPartition(db, state, options);
}

Result<PartitionResult> ResumePartition(ShardedTransactionDatabase* db,
                                        const Checkpoint& checkpoint,
                                        const PartitionOptions& options) {
  if (checkpoint.kind != "partition") {
    return Status::InvalidArgument("checkpoint kind '" + checkpoint.kind +
                                   "' is not 'partition'");
  }
  if (checkpoint.width != db->num_items()) {
    return Status::InvalidArgument(
        "checkpoint width " + std::to_string(checkpoint.width) +
        " does not match database with " + std::to_string(db->num_items()) +
        " items");
  }
  PartitionState state;
  state.n = db->num_items();
  uint64_t v = 0;
  if (!checkpoint.GetScalar("min_support", &v)) {
    return Status::InvalidArgument("partition checkpoint lacks min_support");
  }
  state.min_support = v == 0 ? 1 : static_cast<size_t>(v);
  uint64_t phase1_done = 0;
  checkpoint.GetScalar("phase1_done", &phase1_done);
  PartitionResult& result = state.result;
  result.num_shards = db->num_shards();
  if (checkpoint.GetScalar("num_shards", &v) && phase1_done != 0 &&
      v != db->num_shards()) {
    return Status::InvalidArgument(
        "checkpoint taken over " + std::to_string(v) +
        " shards cannot resume on " + std::to_string(db->num_shards()));
  }
  HGM_OBS_COUNT("partition.runs", 1);
  if (phase1_done == 0) {
    // Interrupted before the union existed: phase 1 is a pure function of
    // (shards, min_support), so just run the whole miner fresh.
    return RunPartition(db, state, options);
  }

  if (checkpoint.GetScalar("phase2_evaluations", &v)) {
    result.phase2_evaluations = static_cast<size_t>(v);
  }
  if (checkpoint.GetScalar("phase2_reused", &v)) {
    result.phase2_reused = static_cast<size_t>(v);
  }
  if (checkpoint.GetScalar("phase2_levels", &v)) {
    result.phase2_levels = static_cast<size_t>(v);
  }
  if (checkpoint.GetScalar("phase2_rejected", &v)) {
    result.phase2_rejected = static_cast<size_t>(v);
  }
  if (checkpoint.GetScalar("shard_retries", &v)) result.shard_retries = v;
  if (checkpoint.GetScalar("unavailable", &v) && v != 0) {
    result.status = Status::Unavailable(
        "resumed from a run with failed shards; result is the surviving "
        "shards' certified union");
  }
  if (!checkpoint.GetScalar("next_level", &v)) {
    return Status::InvalidArgument("partition checkpoint lacks next_level");
  }
  state.next_level = static_cast<size_t>(v);

  Status s = ReadCountSection(checkpoint, "local_thresholds",
                              &result.local_thresholds);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "local_frequent_per_shard",
                       &result.local_frequent_per_shard);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "failed_shards", &result.failed_shards);
  if (!s.ok()) return s;

  std::vector<Bitset> union_flat;
  s = ReadSetSection(checkpoint, "union", state.n, &union_flat);
  if (!s.ok()) return s;
  result.candidate_union_size = union_flat.size();
  size_t max_size = 0;
  for (const Bitset& x : union_flat) max_size = std::max(max_size, x.Count());
  if (state.next_level > max_size + 1) {
    return Status::InvalidArgument(
        "partition checkpoint next_level exceeds the candidate union's "
        "largest size");
  }

  // Exact-count-reuse state.  The sections are read all-or-nothing (a sum
  // without its presence mask would double-count), and a checkpoint from
  // before the reuse bookkeeping existed degrades gracefully: zero masks
  // mean every remaining candidate is recounted in every shard — slower,
  // but the same exact supports.
  for (const Bitset& x : union_flat) state.agg.emplace(x, CandAgg{});
  const std::vector<CheckpointEntry>* sums =
      checkpoint.FindSection("union_sums");
  const std::vector<CheckpointEntry>* masks =
      checkpoint.FindSection("union_masks");
  if (sums != nullptr && masks != nullptr) {
    // The union section alone names the candidates: an entry for any
    // other set (or width) would silently grow it.
    for (auto [section, field] : {std::pair{sums, &CandAgg::sum},
                                  std::pair{masks, &CandAgg::mask}}) {
      for (const CheckpointEntry& e : *section) {
        auto it = state.agg.find(e.items);
        if (it == state.agg.end()) {
          return Status::InvalidArgument(
              "exact-count entry for a set outside the union");
        }
        it->second.*field = e.value;
      }
    }
  }

  // The confirmed sets answer the replay of every level below next_level;
  // the rest of those levels is infrequent (the counted rejections, or
  // outside the union).
  if (const std::vector<CheckpointEntry>* conf =
          checkpoint.FindSection("confirmed")) {
    state.resumed.reserve(conf->size());
    for (const CheckpointEntry& e : *conf) {
      if (e.items.size() != state.n) {
        return Status::InvalidArgument(
            "confirmed entry width does not match the checkpoint width");
      }
      state.resumed.emplace(e.items, static_cast<size_t>(e.value));
    }
  }

  state.phase1_done = true;
  return RunPartition(db, state, options);
}

PartialTheory AsPartialTheory(const PartitionResult& result) {
  PartialTheory out;
  out.stop_reason = result.stop_reason;
  out.theory.reserve(result.frequent.size());
  for (const FrequentItemset& f : result.frequent) {
    out.theory.push_back(f.items);
  }
  out.positive_border = result.maximal;
  out.negative_border = result.negative_border;
  out.queries = result.phase2_evaluations;
  if (result.checkpoint) out.checkpoint = *result.checkpoint;
  return out;
}

AprioriResult AsAprioriResult(const PartitionResult& result) {
  AprioriResult out;
  out.frequent = result.frequent;
  out.maximal = result.maximal;
  out.negative_border = result.negative_border;
  out.support_counts += result.phase2_evaluations;
  return out;
}

}  // namespace hgm
