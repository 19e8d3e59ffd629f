#pragma once

/// \file workloads.h
/// \brief The perfbench workloads and the per-layer replays they share.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"
#include "mining/apriori.h"
#include "mining/transaction_db.h"

namespace perfbench {

/// Seed of the fixed populations that --seed resamples (see Resample).
constexpr uint64_t kShapeSeed = 1995;

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;  // scratch files and the trace dump go here
};

/// batch_quest: one Quest basket, a timed round of Apriori, levelwise and
/// partitioned mining.
Outcome RunBatch(const RunArgs& args);
Outcome RunStream(const RunArgs& args);
/// serve_mixed (open-loop Poisson) and serve_replay (synchronous replay).
Outcome RunServe(const RunArgs& args);
Outcome RunDualize(const RunArgs& args);

/// Traced-run replays over a mined theory: the bitset kernel on the item
/// tidsets, AprioriGen on every level of Th, CountSupportsVertical with a
/// PrefixCoverCache over Th ∪ Bd- level by level, AntichainMaximize over
/// Th, and the Theorem 10 counts.  \p ref must be a complete
/// MineFrequentSets result on \p db at \p min_support; replayed outputs are
/// checked against it.  Adds the common and shared mining metrics to \p out
/// and returns the replayed generation + counting seconds.
double AddTheoryReplays(hgm::TransactionDatabase* db, size_t min_support,
                        const hgm::AprioriResult& ref, hgm::ThreadPool* pool,
                        Tracer* tracer, Outcome* out);

/// Closes a traced run: adds self_ms.<layer> for every module the recorded
/// spans enter, trace_overhead_frac = traced / untraced - 1 for the
/// workload's timed operation, and writes the spans to
/// <workdir>/trace_<workload>_<seed>.jsonl.
void FinishTrace(const RunArgs& args, const Tracer& tracer,
                 double untraced_secs, double traced_secs, Outcome* out);

/// \p v in ascending order, for comparing families of sets.
inline std::vector<hgm::Bitset> Sorted(std::vector<hgm::Bitset> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace perfbench
