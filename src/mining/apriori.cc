#include "mining/apriori.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "core/levelwise.h"
#include "core/theory.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hgm {

namespace {

/// Tidset counting as the level driver's evaluator.  A candidate's support
/// is the popcount of its two join parents' covers ANDed, counted without
/// materializing the intersection; covers are built and kept only for the
/// frequent candidates, which become the next frontier.
class TidsetEvaluator {
 public:
  TidsetEvaluator(TransactionDatabase* db, size_t min_support,
                  ThreadPool* pool, std::vector<Bitset> covers)
      : db_(db),
        min_support_(min_support),
        pool_(pool),
        covers_(std::move(covers)) {}

  LevelVerdicts operator()(const std::vector<Bitset>& candidates,
                           const std::vector<JoinParents>& parents) {
    retired_.clear();
    const size_t m = candidates.size();
    LevelVerdicts out;
    out.values.assign(m, 0);
    std::vector<Bitset> covers(m);
    if (parents.empty()) {
      // Singletons: the cover is the item's tidset.
      for (size_t c = 0; c < m; ++c) {
        Bitset cover = db_->ItemCover(candidates[c].FindFirst());
        out.values[c] = cover.Count();
        if (out.values[c] >= min_support_) covers[c] = std::move(cover);
      }
    } else {
      // Parallel across candidates with index-addressed writes, so the
      // result is the same at every thread count.
      pool_->ParallelFor(m, [&](size_t begin, size_t end, size_t) {
        for (size_t c = begin; c < end; ++c) {
          const Bitset& a = covers_[parents[c].first];
          const Bitset& b = covers_[parents[c].second];
          out.values[c] = a.IntersectionCount(b);
          if (out.values[c] >= min_support_) covers[c] = a & b;
        }
      });
    }
    out.interesting.assign(m, 0);
    std::vector<Bitset> next;
    for (size_t c = 0; c < m; ++c) {
      if (out.values[c] < min_support_) continue;
      out.interesting[c] = 1;
      next.push_back(std::move(covers[c]));
    }
    // The old frontier's covers are freed on the next call, after the
    // driver's sweep: freed before it, their memory is fragmented by the
    // sweep's small allocations and the next covers fault in fresh pages
    // (~1.5x the page faults on a 200k-row basket).
    retired_ = std::move(covers_);
    covers_ = std::move(next);
    return out;
  }

 private:
  TransactionDatabase* db_;
  size_t min_support_;
  ThreadPool* pool_;
  std::vector<Bitset> covers_;   // of the current frontier, in its order
  std::vector<Bitset> retired_;  // of the previous frontier
};

/// Freezes \p state into a kind="apriori" checkpoint.  Its next_level is
/// the size of the candidates to count next (the driver's loop index + 1);
/// covers are not stored — resume rebuilds them from the database.
Checkpoint MakeAprioriCheckpoint(const LevelState& state, size_t n,
                                 size_t min_support) {
  Checkpoint cp;
  cp.kind = "apriori";
  cp.width = n;
  cp.SetScalar("next_level", state.next_level + 1);
  cp.SetScalar("support_counts", state.result.queries);
  cp.SetScalar("min_support", min_support);
  cp.SetScalar("record_all", state.record_theory ? 1 : 0);
  std::vector<CheckpointEntry>* frontier = cp.AddSection("frontier");
  // Before the item scan the frontier is ∅ alone, which this format
  // leaves implicit.
  if (state.next_level > 0) {
    frontier->reserve(state.level.size());
    for (size_t i = 0; i < state.level.size(); ++i) {
      frontier->push_back(
          {Bitset::FromIndices(n, state.level[i]), state.level_values[i]});
    }
  }
  AddSetSection(&cp, "maximal", state.maximal_candidates);
  AddSetSection(&cp, "negative_border", state.result.negative_border);
  if (state.record_theory) {
    std::vector<CheckpointEntry>* freq = cp.AddSection("frequent");
    freq->reserve(state.result.theory.size());
    for (size_t i = 0; i < state.result.theory.size(); ++i) {
      freq->push_back({state.result.theory[i], state.theory_values[i]});
    }
  }
  AddCountSection(&cp, "candidates_per_level",
                  state.result.candidates_per_level);
  AddCountSection(&cp, "frequent_per_level",
                  state.result.interesting_per_level);
  return cp;
}

/// Runs the level driver with tidset counting from \p state, whose
/// frontier has the given \p covers, and converts the finished state.
AprioriResult RunTidsetLevels(TransactionDatabase* db, size_t min_support,
                              const AprioriOptions& options,
                              LevelState&& state,
                              std::vector<Bitset> covers) {
  const size_t n = db->num_items();
  TidsetEvaluator tidsets(db, min_support, PoolOrGlobal(options.pool),
                          std::move(covers));
  LevelDriverOptions driver;
  driver.width = n;
  // Apriori always scans the items, whatever the cap.
  driver.max_level = std::max<size_t>(options.max_level, 1);
  driver.compute_maximal = options.compute_maximal;
  driver.rebuild_sweep_supersets = true;
  driver.engine = "apriori";
  driver.freeze = [n, min_support](const LevelState& s) {
    return MakeAprioriCheckpoint(s, n, min_support);
  };
  LevelEvaluator evaluate;
  evaluate.evaluate = std::ref(tidsets);
  BudgetTracker tracker(options.budget, state.result.queries);
  LevelState done = RunLevels(evaluate, driver, &tracker, std::move(state));

  AprioriResult out;
  LevelwiseResult& r = done.result;
  out.frequent.reserve(r.theory.size());
  for (size_t i = 0; i < r.theory.size(); ++i) {
    out.frequent.push_back({std::move(r.theory[i]), done.theory_values[i]});
  }
  SortFrequent(&out.frequent);
  out.maximal = std::move(r.positive_border);
  out.negative_border = std::move(r.negative_border);
  out.support_counts = r.queries;
  out.candidates_per_level = std::move(r.candidates_per_level);
  out.frequent_per_level = std::move(r.interesting_per_level);
  out.stop_reason = r.stop_reason;
  out.checkpoint = std::move(r.checkpoint);
  if (out.stop_reason == StopReason::kCompleted) {
    HGM_OBS_COUNT("apriori.support_counts", out.support_counts);
  }
  return out;
}

}  // namespace

AprioriResult MineFrequentSets(TransactionDatabase* db, size_t min_support,
                               const AprioriOptions& options) {
  const size_t n = db->num_items();
  const size_t num_rows = db->num_transactions();
  HGM_OBS_COUNT("apriori.runs", 1);
  obs::TraceSpan run_span("apriori.run", "mining",
                          {{"items", n}, {"rows", num_rows}});

  // Level 0: the empty itemset, supported by every row.
  AprioriResult out = RunTidsetLevels(
      db, min_support, options,
      RootLevel(n, num_rows >= min_support, options.record_all, num_rows),
      {});
  run_span.AddArg("support_counts", out.support_counts);
  run_span.AddArg("maximal", out.maximal.size());
  return out;
}

Result<AprioriResult> ResumeFrequentSets(TransactionDatabase* db,
                                         const Checkpoint& checkpoint,
                                         const AprioriOptions& options) {
  const size_t n = db->num_items();
  if (checkpoint.kind != "apriori") {
    return Status::InvalidArgument("checkpoint kind '" + checkpoint.kind +
                                   "' is not 'apriori'");
  }
  if (checkpoint.width != n) {
    return Status::InvalidArgument(
        "checkpoint width " + std::to_string(checkpoint.width) +
        " does not match the database's " + std::to_string(n) + " items");
  }
  HGM_OBS_COUNT("apriori.runs", 1);
  obs::TraceSpan run_span("apriori.resume", "mining", {{"items", n}});

  LevelState state;
  uint64_t v = 0;
  if (!checkpoint.GetScalar("next_level", &v) || v == 0) {
    return Status::InvalidArgument("apriori checkpoint missing next_level");
  }
  state.next_level = static_cast<size_t>(v - 1);
  if (!checkpoint.GetScalar("min_support", &v)) {
    return Status::InvalidArgument("apriori checkpoint missing min_support");
  }
  const size_t min_support = static_cast<size_t>(v);
  if (checkpoint.GetScalar("support_counts", &v)) state.result.queries = v;
  state.record_theory =
      checkpoint.GetScalar("record_all", &v) ? v != 0 : true;

  // Covers are not checkpointed: the frontier's are rebuilt from the
  // database.  These reads are not support computations, so the query
  // tally stays bit-identical to an uninterrupted run.
  std::vector<Bitset> covers;
  const std::vector<CheckpointEntry>* frontier =
      checkpoint.FindSection("frontier");
  if (frontier != nullptr) {
    for (const CheckpointEntry& e : *frontier) {
      if (e.items.size() != n) {
        return Status::InvalidArgument(
            "apriori checkpoint frontier width mismatch");
      }
      const std::vector<size_t> items = e.items.Indices();
      state.level.emplace_back(items.begin(), items.end());
      state.level_values.push_back(e.value);
      covers.push_back(db->Cover(e.items));
    }
  }
  if (state.next_level == 0 && state.level.empty()) {
    // The item scan is pending: the frontier is ∅.
    state.level.push_back(ItemVec{});
    state.level_values.push_back(db->num_transactions());
  }
  Status s = CheckFrontier(state.level, state.next_level);
  if (!s.ok()) return s;
  s = ReadSetSection(checkpoint, "maximal", n, &state.maximal_candidates);
  if (!s.ok()) return s;
  s = ReadSetSection(checkpoint, "negative_border", n,
                     &state.result.negative_border);
  if (!s.ok()) return s;
  if (state.record_theory) {
    const std::vector<CheckpointEntry>* freq =
        checkpoint.FindSection("frequent");
    if (freq != nullptr) {
      for (const CheckpointEntry& e : *freq) {
        if (e.items.size() != n) {
          return Status::InvalidArgument(
              "apriori checkpoint frequent width mismatch");
        }
        state.result.theory.push_back(e.items);
        state.theory_values.push_back(e.value);
      }
    }
  }
  s = ReadCountSection(checkpoint, "candidates_per_level",
                       &state.result.candidates_per_level);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "frequent_per_level",
                       &state.result.interesting_per_level);
  if (!s.ok()) return s;

  AprioriResult out = RunTidsetLevels(db, min_support, options,
                                      std::move(state), std::move(covers));
  run_span.AddArg("support_counts", out.support_counts);
  run_span.AddArg("maximal", out.maximal.size());
  return out;
}

PartialTheory AsPartialTheory(const AprioriResult& result) {
  PartialTheory partial;
  partial.stop_reason = result.stop_reason;
  partial.theory.reserve(result.frequent.size());
  for (const FrequentItemset& f : result.frequent) {
    partial.theory.push_back(f.items);
  }
  partial.positive_border = result.maximal;
  partial.negative_border = result.negative_border;
  partial.queries = result.support_counts;
  if (result.checkpoint) partial.checkpoint = *result.checkpoint;
  return partial;
}

AprioriResult MineFrequentSetsBrute(TransactionDatabase* db,
                                    size_t min_support) {
  const size_t n = db->num_items();
  assert(n <= 20 && "brute-force mining needs small n");
  AprioriResult result;
  std::vector<Bitset> frequent_sets;
  std::vector<Bitset> infrequent;
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    Bitset x(n);
    for (size_t v = 0; v < n; ++v) {
      if ((mask >> v) & 1) x.Set(v);
    }
    ++result.support_counts;
    size_t support = db->Support(x);
    if (support >= min_support) {
      result.frequent.push_back({x, support});
      frequent_sets.push_back(std::move(x));
    } else {
      infrequent.push_back(std::move(x));
    }
  }
  result.maximal = frequent_sets;
  AntichainMaximize(&result.maximal);
  CanonicalSort(&result.maximal);
  AntichainMinimize(&infrequent);
  CanonicalSort(&infrequent);
  result.negative_border = std::move(infrequent);
  SortFrequent(&result.frequent);
  return result;
}

}  // namespace hgm
