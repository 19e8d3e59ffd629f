// batch_quest: one Quest basket (200k rows, 100 items, T=10, minsup
// 2.5% = 5,000) mined three ways per timed round: MineFrequentSets with
// default options, RunLevelwise (Algorithm 9) over a FrequencyOracle, and
// MinePartitioned at K=4 on a database Split into shards beforehand,
// untimed.  A round is the three mining times summed.
// Everything runs on 1-thread pools: multi-threaded mining times swing
// too much on a shared host to gate on.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/levelwise.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "mining/partition.h"
#include "mining/sharded_db.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kRows = 200000;
constexpr size_t kItems = 100;
constexpr size_t kMinSupport = 5000;  // 2.5% of kRows
constexpr size_t kShards = 4;
// Set-up samples taken before the first timed repeat; one more follows
// each repeat, so the samples spread over the whole run.
constexpr int kSetupReps = 3;

std::string Fingerprint(const hgm::AprioriResult& r) {
  return hgm::serve::TheoryFingerprint(r.frequent, r.maximal,
                                       r.negative_border);
}

/// Th, Bd+ and Bd- of a levelwise run equal the Apriori reference's, and
/// the run asked exactly |Th| + |Bd-| queries (Theorem 10).
bool LevelwiseMatches(const hgm::LevelwiseResult& lw,
                      const hgm::AprioriResult& ref) {
  std::vector<hgm::Bitset> th;
  for (const hgm::FrequentItemset& f : ref.frequent) th.push_back(f.items);
  return Sorted(lw.theory) == Sorted(th) &&
         Sorted(lw.positive_border) == Sorted(ref.maximal) &&
         Sorted(lw.negative_border) == Sorted(ref.negative_border) &&
         lw.queries == lw.theory.size() + lw.negative_border.size();
}

}  // namespace

Outcome RunBatch(const RunArgs& args) {
  Outcome out;
  Tracer tracer(args.trace);
  Tracer off(false);

  // Input: generated from the seed, written as a basket file, and loaded
  // back the way a user's run starts.
  const std::string path = args.workdir + "/batch_" +
                           std::to_string(args.seed) + ".basket";
  {
    hgm::QuestParams params;
    params.num_transactions = kRows;
    params.avg_transaction_size = 10;
    params.num_items = kItems;
    hgm::Rng rng(kShapeSeed);
    const hgm::TransactionDatabase gen =
        Resample(hgm::GenerateQuest(params, &rng), kRows, args.seed);
    out.Check(gen.SaveBasketFile(path).ok(), "cannot write " + path);
  }

  // Set-up: LoadBasketFile + EnsureVerticalIndex.  The basket stays on
  // disk until the end of the run for the samples between repeats.
  std::vector<double> setup, load, index;
  auto load_once = [&]() -> std::optional<hgm::TransactionDatabase> {
    const double t0 = Now();
    hgm::Result<hgm::TransactionDatabase> loaded = [&] {
      Scope span(&tracer, "TransactionDatabase::LoadBasketFile", "mining");
      return hgm::TransactionDatabase::LoadBasketFile(path, kItems);
    }();
    const double t1 = Now();
    if (!loaded.ok()) return std::nullopt;
    {
      Scope span(&tracer, "TransactionDatabase::EnsureVerticalIndex",
                 "mining");
      loaded.value().EnsureVerticalIndex();
    }
    const double t2 = Now();
    setup.push_back(t2 - t0);
    load.push_back(t1 - t0);
    index.push_back(t2 - t1);
    return std::move(loaded.value());
  };
  struct RemoveOnExit {
    const std::string& path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
  } remove_basket{path};
  hgm::TransactionDatabase db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::optional<hgm::TransactionDatabase> loaded = load_once();
    if (!loaded) {
      out.Check(false, "cannot load " + path);
      return out;
    }
    db = std::move(*loaded);
  }
  out.Check(db.num_transactions() == kRows, "loaded basket lost rows");

  hgm::ThreadPool pool(1);
  auto apriori = [&](bool compute_maximal, Tracer* t) {
    Scope span(t, "MineFrequentSets", "mining");
    hgm::AprioriOptions options;
    options.pool = &pool;
    options.compute_maximal = compute_maximal;
    return hgm::MineFrequentSets(&db, kMinSupport, options);
  };
  auto levelwise = [&](hgm::InterestingnessOracle* oracle, Tracer* t) {
    Scope span(t, "RunLevelwise", "core");
    return hgm::RunLevelwise(oracle);
  };
  auto split = [&](Tracer* t) {
    Scope span(t, "ShardedTransactionDatabase::Split", "mining");
    return hgm::ShardedTransactionDatabase::Split(db, kShards);
  };
  auto partition = [&](hgm::ShardedTransactionDatabase* sharded, Tracer* t) {
    Scope span(t, "MinePartitioned", "mining");
    hgm::PartitionOptions options;
    options.pool = &pool;
    return hgm::MinePartitioned(sharded, kMinSupport, options);
  };

  // The untimed reference: Apriori obeys Theorem 10's query count.
  const hgm::AprioriResult ref = apriori(true, &off);
  const std::string ref_fp = Fingerprint(ref);
  out.Check(ref.stop_reason == hgm::StopReason::kCompleted &&
                ref.support_counts.load() ==
                    ref.frequent.size() + ref.negative_border.size(),
            "Apriori: queries != |Th| + |Bd-|");

  // The timed round.  Untimed, every output is checked against the
  // reference: the three miners agree bit-for-bit on Th with supports, Bd+
  // and Bd-.  The levelwise oracle is decorated only when traced.
  auto run_op = [&](Tracer* t) -> double {
    double t0 = Now();
    const hgm::AprioriResult a = apriori(true, t);
    double secs = Now() - t0;
    out.Check(Fingerprint(a) == ref_fp, "timed Apriori differs");

    t0 = Now();
    hgm::FrequencyOracle o(&db, kMinSupport, true, &pool);
    TimingOracle timed(&o, t);
    hgm::InterestingnessOracle* used = &o;
    if (t->enabled()) used = &timed;
    const hgm::LevelwiseResult lw = levelwise(used, t);
    secs += Now() - t0;
    out.Check(LevelwiseMatches(lw, ref), "timed levelwise differs");

    hgm::ShardedTransactionDatabase shards = split(t);
    t0 = Now();
    const hgm::PartitionResult p = partition(&shards, t);
    secs += Now() - t0;
    out.Check(p.status.ok() && Fingerprint(hgm::AsAprioriResult(p)) == ref_fp,
              "timed partition differs");
    return secs;
  };

  if (!args.trace) {
    std::vector<double> times;
    const double stop = Now() + args.seconds;
    while (times.size() < 3 || Now() < stop) {
      times.push_back(run_op(&off));
      if (!load_once()) out.Check(false, "cannot reload " + path);
    }
    out.Add("setup_s", Median(setup), "s");
    out.Add("op_ms_trimmed_mean", TrimmedMean(times) * 1e3, "ms");
    out.Add("op_ms_tail", TailPercentile(times) * 1e3, "ms");
    out.samples = times.size();
    return out;
  }

  // Traced run: the timed operation without and with spans, then the
  // per-layer replays.
  std::vector<double> untraced, traced;
  for (int rep = 0; rep < 3; ++rep) untraced.push_back(run_op(&off));
  for (int rep = 0; rep < 3; ++rep) traced.push_back(run_op(&tracer));
  out.Add("load.ms", Median(load) * 1e3, "ms");
  out.Add("index.ms", Median(index) * 1e3, "ms");

  // The maximal-set sweep: default Apriori minus compute_maximal=false.
  std::vector<double> full, no_sweep;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = Now();
    apriori(true, &tracer);
    full.push_back(Now() - t0);
    t0 = Now();
    apriori(false, &tracer);
    no_sweep.push_back(Now() - t0);
  }
  const double sweep = Median(full) - Median(no_sweep);
  out.Add("apriori.sweep_ms", sweep * 1e3, "ms");

  {
    hgm::FrequencyOracle o(&db, kMinSupport, true, &pool);
    TimingOracle timed(&o, &tracer);
    const double t0 = Now();
    const hgm::LevelwiseResult r = levelwise(&timed, &tracer);
    const double total = Now() - t0;
    out.Check(LevelwiseMatches(r, ref), "decorated levelwise differs");
    out.Add("levelwise.oracle_ms", timed.seconds() * 1e3, "ms");
    out.Add("levelwise.driver_ms", (total - timed.seconds()) * 1e3, "ms");
  }
  {
    const double t0 = Now();
    hgm::ShardedTransactionDatabase shards = split(&tracer);
    out.Add("partition.split_ms", (Now() - t0) * 1e3, "ms");
    const hgm::PartitionResult r = partition(&shards, &tracer);
    out.Add("partition.union_size",
            static_cast<double>(r.candidate_union_size), "count");
    out.Add("partition.phase2_evaluations",
            static_cast<double>(r.phase2_evaluations), "count");
    out.Add("partition.phase2_reused", static_cast<double>(r.phase2_reused),
            "count");
  }

  const double replayed =
      AddTheoryReplays(&db, kMinSupport, ref, &pool, &tracer, &out);
  out.Add("apriori.coverage", (replayed + sweep) / Median(full), "ratio");
  FinishTrace(args, tracer, Median(untraced), Median(traced), &out);
  return out;
}

}  // namespace perfbench
