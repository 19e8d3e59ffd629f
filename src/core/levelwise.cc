#include "core/levelwise.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "common/apriori_gen.h"
#include "core/audit.h"
#include "core/theory.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace hgm {

namespace {

/// Publishes the run's Theorem 10 / Corollary 13 quantities as gauges so
/// obs::LevelwiseBoundReportFromRegistry can compute bound ratios without
/// holding the result struct.
void PublishLevelwiseGauges(const LevelwiseResult& result, size_t n) {
  if (!obs::MetricsOn()) return;
  size_t rank = 0;
  for (const Bitset& m : result.positive_border) {
    rank = std::max(rank, m.Count());
  }
  uint64_t interesting = 0;
  for (size_t c : result.interesting_per_level) interesting += c;
  HGM_OBS_GAUGE_SET("levelwise.last_queries", result.queries);
  HGM_OBS_GAUGE_SET("levelwise.last_theory_size", interesting);
  HGM_OBS_GAUGE_SET("levelwise.last_positive_border",
                    result.positive_border.size());
  HGM_OBS_GAUGE_SET("levelwise.last_negative_border",
                    result.negative_border.size());
  HGM_OBS_GAUGE_SET("levelwise.last_rank", rank);
  HGM_OBS_GAUGE_SET("levelwise.last_width", n);
}

/// Counters named per engine at run time, so not HGM_OBS_COUNT's
/// per-site cached lookup.
void CountMetric(const std::string& name, uint64_t delta) {
  if (obs::MetricsOn()) {
    obs::MetricsRegistry::Global().GetCounter(name).Add(delta);
  }
}

/// Appends to \p maximal the sets of \p level with no superset among the
/// next level's sets (\p next, \p next_sets in step), skipping those
/// marked \p extended (join parents of an interesting candidate).
/// Apriori-gen completeness puts every interesting (k+1)-set in \p next,
/// so the test is exact.
void SweepMaximal(const std::vector<ItemVec>& level,
                  const std::vector<uint8_t>& extended,
                  const std::vector<ItemVec>& next,
                  const std::vector<Bitset>& next_sets,
                  bool rebuild_supersets, size_t n,
                  std::vector<Bitset>* maximal) {
  for (size_t i = 0; i < level.size(); ++i) {
    if (extended[i]) continue;
    Bitset x = Bitset::FromIndices(n, level[i]);
    bool covered = false;
    for (size_t j = 0; j < next.size() && !covered; ++j) {
      covered = rebuild_supersets
                    ? x.IsSubsetOf(Bitset::FromIndices(n, next[j]))
                    : x.IsSubsetOf(next_sets[j]);
    }
    if (!covered) maximal->push_back(std::move(x));
  }
}

/// The frontier plus the sets already known maximal, reduced to an
/// antichain in canonical order.
std::vector<Bitset> MaximalOf(LevelState* state, size_t n) {
  std::vector<Bitset> maximal = std::move(state->maximal_candidates);
  for (const ItemVec& s : state->level) {
    maximal.push_back(Bitset::FromIndices(n, s));
  }
  AntichainMaximize(&maximal);
  CanonicalSort(&maximal);
  return maximal;
}

/// The certified partial result for a budget trip at the boundary of
/// level `state.next_level`: the frontier joins the accumulated maximal
/// candidates to form the prefix's positive border.
LevelState FinishPartial(LevelState&& state,
                         const LevelDriverOptions& options,
                         StopReason reason) {
  // Freeze the checkpoint before any move empties the state's containers.
  state.result.checkpoint = options.freeze(state);
  state.result.stop_reason = reason;
  state.result.positive_border = MaximalOf(&state, options.width);
  CanonicalSort(&state.result.negative_border);
  if (audit::kEnabled) {
    // The prefix contracts: both borders are antichains (duality only
    // holds for complete theories, so that cross-check is skipped).
    audit::AuditAntichain(state.result.positive_border, "partial Bd+");
    audit::AuditAntichain(state.result.negative_border, "partial Bd-");
  }
  return std::move(state);
}

/// Freezes \p state into a kind="levelwise" checkpoint.
Checkpoint MakeLevelwiseCheckpoint(const LevelState& state, size_t n) {
  Checkpoint cp;
  cp.kind = "levelwise";
  cp.width = n;
  cp.SetScalar("next_level", state.next_level);
  cp.SetScalar("queries", state.result.queries);
  cp.SetScalar("candidates", state.result.candidates);
  cp.SetScalar("levels", state.result.levels);
  cp.SetScalar("record_theory", state.record_theory ? 1 : 0);
  std::vector<Bitset> frontier;
  frontier.reserve(state.level.size());
  for (const ItemVec& s : state.level) {
    frontier.push_back(Bitset::FromIndices(n, s));
  }
  AddSetSection(&cp, "frontier", frontier);
  AddSetSection(&cp, "maximal", state.maximal_candidates);
  AddSetSection(&cp, "negative_border", state.result.negative_border);
  if (state.record_theory) {
    AddSetSection(&cp, "theory", state.result.theory);
  }
  AddCountSection(&cp, "candidates_per_level",
                  state.result.candidates_per_level);
  AddCountSection(&cp, "interesting_per_level",
                  state.result.interesting_per_level);
  return cp;
}

/// Runs the shared driver with the oracle as the level evaluator and
/// finishes the levelwise result.
LevelwiseResult RunOracleLevels(InterestingnessOracle* oracle,
                                const LevelwiseOptions& options,
                                LevelState&& state) {
  const size_t n = oracle->num_items();
  // Step 4 of Algorithm 9: the whole level C_l is one batch — the queries
  // are mutually independent, so a parallel oracle may answer them
  // concurrently, and a batch of size m charges exactly m queries.
  LevelEvaluator evaluate;
  evaluate.evaluate = [oracle](const std::vector<Bitset>& candidates,
                               const std::vector<JoinParents>&) {
    return LevelVerdicts{oracle->EvaluateBatch(candidates), {}};
  };
  LevelDriverOptions driver;
  driver.width = n;
  driver.max_level = options.max_level;
  driver.engine = "levelwise";
  driver.freeze = [n](const LevelState& s) {
    return MakeLevelwiseCheckpoint(s, n);
  };
  BudgetTracker tracker(options.budget, state.result.queries);
  LevelState done = RunLevels(evaluate, driver, &tracker, std::move(state));
  LevelwiseResult result = std::move(done.result);
  if (done.record_theory) CanonicalSort(&result.theory);
  PublishLevelwiseGauges(result, n);
  return result;
}

}  // namespace

LevelState RootLevel(size_t n, bool interesting, bool record_theory,
                     std::optional<uint64_t> value) {
  LevelState state;
  state.record_theory = record_theory;
  LevelwiseResult& result = state.result;
  result.queries = 1;
  result.candidates = 1;
  result.candidates_per_level.push_back(1);
  result.interesting_per_level.push_back(interesting ? 1 : 0);
  if (!interesting) {
    result.negative_border.push_back(Bitset(n));
    return state;
  }
  if (record_theory) result.theory.push_back(Bitset(n));
  state.level.push_back(ItemVec{});
  if (value) {
    if (record_theory) state.theory_values.push_back(*value);
    state.level_values.push_back(*value);
  }
  return state;
}

LevelState RunLevels(const LevelEvaluator& evaluator,
                     const LevelDriverOptions& options, BudgetTracker* tracker,
                     LevelState&& state) {
  const size_t n = options.width;
  const std::string engine = options.engine;
  const std::string level_name = engine + ".level";
  const std::string candidates_name = engine + ".candidates";
  const std::string queries_name = engine + ".queries";
  const std::string interesting_name = engine + ".interesting";
  LevelwiseResult& result = state.result;

  std::unordered_set<Bitset, BitsetHash> level_set;
  for (size_t k = state.next_level;
       !state.level.empty() && k < options.max_level; ++k) {
    state.next_level = k;
    // Checkpointable boundary: nothing of level k has been recorded yet,
    // so a trip here resumes by re-entering the loop at k exactly.  A
    // replayed level has no boundary: it was decided before the freeze.
    const bool replay = k + 1 < state.replay_below;
    if (!replay) {
      StopReason boundary = tracker->CheckBoundary();
      if (boundary != StopReason::kCompleted) {
        return FinishPartial(std::move(state), options, boundary);
      }
    }
    obs::TraceSpan level_span(level_name, "core", {{"level", k + 1}});
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kLevel, level_name.c_str(),
        static_cast<int64_t>(k + 1),
        static_cast<int64_t>(state.level.size()));
    (void)obs::SampleMemory();
    std::vector<ItemVec> candidates;
    std::vector<JoinParents> parents;
    if (k == 0) {
      candidates = SingletonCandidates(n);
    } else {
      level_set.clear();
      for (const auto& s : state.level) {
        level_set.insert(Bitset::FromIndices(n, s));
      }
      candidates = AprioriGen(state.level, level_set, n, &parents);
    }

    std::vector<Bitset> batch;
    batch.reserve(candidates.size());
    for (const auto& cand : candidates) {
      batch.push_back(Bitset::FromIndices(n, cand));
    }
    // Pre-batch budget check over the candidates that need a data pass:
    // generation and triage touched no data, so a trip here discards the
    // candidates and the resumed run regenerates them bit-identically; no
    // counter has advanced.
    uint64_t charged = 0;
    if (!replay) {
      charged = evaluator.triage ? evaluator.triage(batch) : batch.size();
      StopReason pre =
          tracker->CheckBeforeBatch(charged, charged * ((n + 7) / 8));
      if (pre != StopReason::kCompleted) {
        return FinishPartial(std::move(state), options, pre);
      }
    }

    result.levels = k + 1;
    result.candidates += candidates.size();
    result.candidates_per_level.push_back(candidates.size());
    CountMetric(candidates_name, candidates.size());
    if (obs::MetricsOn()) {
      obs::MetricsRegistry::Global()
          .GetHistogram(engine + ".level_candidates")
          .Observe(candidates.size());
    }
    result.queries += batch.size();
    tracker->ChargeQueries(charged);
    CountMetric(queries_name, batch.size());
    LevelVerdicts verdicts = replay ? evaluator.replay(batch)
                                    : evaluator.evaluate(batch, parents);
    const bool has_values = !verdicts.values.empty();

    std::vector<ItemVec> next;
    std::vector<Bitset> next_sets;
    std::vector<uint64_t> next_values;
    std::vector<uint8_t> extended(state.level.size(), 0);
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (!verdicts.interesting[c]) {
        result.negative_border.push_back(std::move(batch[c]));
        continue;
      }
      if (!parents.empty()) {
        extended[parents[c].first] = 1;
        extended[parents[c].second] = 1;
      }
      // Apriori's sweep rebuilds its supersets, so it keeps no copy.
      if (state.record_theory) {
        result.theory.push_back(options.rebuild_sweep_supersets
                                    ? std::move(batch[c])
                                    : batch[c]);
        if (has_values) state.theory_values.push_back(verdicts.values[c]);
      }
      if (!options.rebuild_sweep_supersets) {
        next_sets.push_back(std::move(batch[c]));
      }
      if (has_values) next_values.push_back(verdicts.values[c]);
      next.push_back(std::move(candidates[c]));
    }
    result.interesting_per_level.push_back(next.size());
    CountMetric(interesting_name, next.size());
    level_span.AddArg("candidates", candidates.size());
    level_span.AddArg("interesting", next.size());
    level_span.AddArg("border_growth", result.negative_border.size());

    if (audit::kEnabled) {
      // Frontier contract behind Theorem 10: every interesting (k+1)-set
      // extends only interesting k-sets (the theory is downward closed).
      std::vector<Bitset> level_sets, next_level_sets;
      for (const auto& s : state.level) {
        level_sets.push_back(Bitset::FromIndices(n, s));
      }
      for (const auto& s : next) {
        next_level_sets.push_back(Bitset::FromIndices(n, s));
      }
      audit::AuditFrontierClosure(level_sets, next_level_sets,
                                  level_name.c_str());
    }
    // Maximality: an interesting k-set is maximal iff no interesting
    // (k+1)-superset exists.  Join parents of an interesting candidate are
    // not; the rest are swept.
    if (options.compute_maximal) {
      SweepMaximal(state.level, extended, next, next_sets,
                   options.rebuild_sweep_supersets, n,
                   &state.maximal_candidates);
    }
    state.level = std::move(next);
    state.level_values = std::move(next_values);
  }

  // Whatever remains in `level` when the loop exits on the max_level cap is
  // maximal within the truncated lattice.
  const bool truncated = !state.level.empty();
  if (options.compute_maximal) {
    // The sweep already guarantees maximality for untruncated runs, but a
    // final antichain pass keeps the contract unconditional.
    result.positive_border = MaximalOf(&state, n);
  }
  state.level.clear();
  state.level_values.clear();
  CanonicalSort(&result.negative_border);

  if (audit::kEnabled) {
    audit::AuditAntichain(result.positive_border, "Bd+");
    audit::AuditAntichain(result.negative_border, "Bd-");
    // Theorem 7 only relates the borders of the *full* theory; a max_level
    // cap truncates both, so the cross-check applies to complete runs.
    if (!truncated && options.compute_maximal) {
      audit::AuditBorderDuality(result.positive_border,
                                result.negative_border, n,
                                level_name.c_str());
    }
  }
  return std::move(state);
}

LevelwiseResult RunLevelwise(InterestingnessOracle* oracle,
                             const LevelwiseOptions& options) {
  const size_t n = oracle->num_items();
  HGM_OBS_COUNT("levelwise.runs", 1);
  obs::TraceSpan run_span("levelwise.run", "core", {{"width", n}});

  // Level 0: the unique most general sentence, ∅.  This single probe
  // precedes budget enforcement (which lives at level boundaries), so
  // even a cancelled run returns a nonempty certified prefix.  When ∅ is
  // not interesting, Th = ∅ and Bd- = {∅}.
  HGM_OBS_COUNT("levelwise.candidates", 1);
  HGM_OBS_COUNT("levelwise.queries", 1);
  const bool root = oracle->IsInteresting(Bitset(n));
  if (root) {
    HGM_OBS_COUNT("levelwise.interesting", 1);
  }
  LevelwiseResult out = RunOracleLevels(
      oracle, options, RootLevel(n, root, options.record_theory));
  run_span.AddArg("queries", out.queries);
  run_span.AddArg("levels", out.levels);
  return out;
}

Result<LevelwiseResult> ResumeLevelwise(InterestingnessOracle* oracle,
                                        const Checkpoint& checkpoint,
                                        const LevelwiseOptions& options) {
  const size_t n = oracle->num_items();
  if (checkpoint.kind != "levelwise") {
    return Status::InvalidArgument("checkpoint kind '" + checkpoint.kind +
                                   "' is not 'levelwise'");
  }
  if (checkpoint.width != n) {
    return Status::InvalidArgument(
        "checkpoint width " + std::to_string(checkpoint.width) +
        " does not match the oracle's " + std::to_string(n) + " items");
  }
  HGM_OBS_COUNT("levelwise.runs", 1);
  obs::TraceSpan run_span("levelwise.resume", "core", {{"width", n}});

  LevelState state;
  uint64_t v = 0;
  if (!checkpoint.GetScalar("next_level", &v)) {
    return Status::InvalidArgument("levelwise checkpoint missing next_level");
  }
  state.next_level = static_cast<size_t>(v);
  if (checkpoint.GetScalar("queries", &v)) state.result.queries = v;
  if (checkpoint.GetScalar("candidates", &v)) state.result.candidates = v;
  if (checkpoint.GetScalar("levels", &v)) {
    state.result.levels = static_cast<size_t>(v);
  }
  state.record_theory =
      checkpoint.GetScalar("record_theory", &v) ? v != 0 : true;

  std::vector<Bitset> frontier;
  Status s = ReadSetSection(checkpoint, "frontier", n, &frontier);
  if (!s.ok()) return s;
  state.level.reserve(frontier.size());
  for (const Bitset& f : frontier) {
    const std::vector<size_t> items = f.Indices();
    state.level.emplace_back(items.begin(), items.end());
  }
  s = CheckFrontier(state.level, state.next_level);
  if (!s.ok()) return s;
  s = ReadSetSection(checkpoint, "maximal", n, &state.maximal_candidates);
  if (!s.ok()) return s;
  s = ReadSetSection(checkpoint, "negative_border", n,
                     &state.result.negative_border);
  if (!s.ok()) return s;
  if (state.record_theory) {
    s = ReadSetSection(checkpoint, "theory", n, &state.result.theory);
    if (!s.ok()) return s;
  }
  s = ReadCountSection(checkpoint, "candidates_per_level",
                       &state.result.candidates_per_level);
  if (!s.ok()) return s;
  s = ReadCountSection(checkpoint, "interesting_per_level",
                       &state.result.interesting_per_level);
  if (!s.ok()) return s;

  LevelwiseResult out = RunOracleLevels(oracle, options, std::move(state));
  run_span.AddArg("queries", out.queries);
  run_span.AddArg("levels", out.levels);
  return out;
}

Status CheckFrontier(const std::vector<ItemVec>& level, size_t next_level) {
  for (size_t i = 0; i < level.size(); ++i) {
    if (level[i].size() != next_level) {
      return Status::InvalidArgument(
          "checkpoint frontier set of size " +
          std::to_string(level[i].size()) + " at level " +
          std::to_string(next_level));
    }
    if (i > 0 && !(level[i - 1] < level[i])) {
      return Status::InvalidArgument(
          "checkpoint frontier is not in sorted order");
    }
  }
  return Status::OK();
}

PartialTheory AsPartialTheory(const LevelwiseResult& result) {
  PartialTheory partial;
  partial.stop_reason = result.stop_reason;
  partial.theory = result.theory;
  partial.positive_border = result.positive_border;
  partial.negative_border = result.negative_border;
  partial.queries = result.queries;
  if (result.checkpoint) partial.checkpoint = *result.checkpoint;
  return partial;
}

}  // namespace hgm
