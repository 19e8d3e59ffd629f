// dualize_planted: Algorithm 16 (RunDualizeAdvance, default
// Fredman-Khachiyan enumerator) on a planted database whose maximal
// frequent sets are known: 12 random patterns of 8 out of 30 items, 3
// copies each, no noise, minsup 3, with the items relabelled per repeat
// from the seed.  Transversal enumeration dominates and support counting
// (1-word tidsets) is negligible, so this is the workload that exercises
// hypergraph/ and the no-move control for counting-kernel changes.

#include <memory>
#include <vector>

#include "common/random.h"
#include "core/dualize_advance.h"
#include "core/theory.h"
#include "hypergraph/transversal_berge.h"
#include "hypergraph/transversal_fk.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kItems = 30;
constexpr size_t kPatterns = 12;
constexpr size_t kPatternSize = 8;
constexpr size_t kCopies = 3;
constexpr size_t kMinSupport = 3;
// One instance builds in microseconds, so a set-up sample is a section of
// back-to-back builds at least this long, divided by their number.
constexpr double kSetupSectionS = 0.1;

/// One planted instance: the fixed antichain under one relabelling.
struct Instance {
  std::vector<hgm::Bitset> patterns;
  hgm::TransactionDatabase db;
};

Instance MakeInstance(uint64_t labelling) {
  Instance inst;
  hgm::Rng rng(kShapeSeed);
  inst.patterns = hgm::RandomPatterns(kItems, kPatterns, kPatternSize, &rng);
  const std::vector<size_t> perm = ItemPermutation(kItems, labelling);
  for (hgm::Bitset& p : inst.patterns) p = Permute(p, perm);
  inst.db = hgm::PlantedDatabase(kItems, inst.patterns, kCopies, 0, 0, &rng);
  inst.db.EnsureVerticalIndex();
  return inst;
}

}  // namespace

Outcome RunDualize(const RunArgs& args) {
  Outcome out;
  Tracer tracer(args.trace);
  Tracer off(false);
  hgm::ThreadPool pool(1);

  // Set-up: one instance and its oracle, per kSetupSectionS section.
  auto setup_section = [&]() -> double {
    const double t0 = Now();
    double t1 = t0;
    size_t builds = 0;
    while (t1 - t0 < kSetupSectionS) {
      Instance inst = MakeInstance(args.seed);
      hgm::FrequencyOracle oracle(&inst.db, kMinSupport, true, &pool);
      ++builds;
      t1 = Now();
    }
    return (t1 - t0) / static_cast<double>(builds);
  };

  // Repeat r runs on relabelling (seed, r): enumeration time differs by
  // tens of percent between labellings of one antichain, so a run reports
  // the trimmed mean over every labelling it drew, not one labelling's time.
  EnumeratorStats enum_stats;
  auto run_op = [&](uint64_t rep, Tracer* t, bool decorate) -> double {
    Instance inst = MakeInstance(args.seed * 1000003 + rep);
    hgm::FrequencyOracle oracle(&inst.db, kMinSupport, true, &pool);
    TimingOracle timed(&oracle, t);
    hgm::DualizeAdvanceOptions options;
    if (decorate) {
      options.make_enumerator =
          [&]() -> std::unique_ptr<hgm::TransversalEnumerator> {
        return std::make_unique<TimingEnumerator>(
            std::make_unique<hgm::FkTransversalEnumerator>(), &enum_stats, t);
      };
    }
    const double t0 = Now();
    const hgm::DualizeAdvanceResult r = [&] {
      Scope span(t, "RunDualizeAdvance", "core");
      return hgm::RunDualizeAdvance(
          decorate ? static_cast<hgm::InterestingnessOracle*>(&timed)
                   : &oracle,
          options);
    }();
    const double secs = Now() - t0;

    // Checked untimed: MTh is the planted antichain, and Bd- is the
    // minimal transversals of the complements of MTh (Theorem 7, Berge).
    hgm::BergeTransversals berge;
    out.Check(inst.patterns.size() == kPatterns &&
                  r.stop_reason == hgm::StopReason::kCompleted &&
                  Sorted(r.positive_border) == Sorted(inst.patterns) &&
                  Sorted(r.negative_border) ==
                      Sorted(hgm::NegativeBorderViaTransversals(
                          inst.patterns, kItems, &berge)),
              "RunDualizeAdvance: MTh or Bd- differ from the planted truth");
    if (decorate) {
      out.Add("dualize.oracle_ms", timed.seconds() * 1e3, "ms");
      out.Add("dualize.queries", static_cast<double>(timed.queries()),
              "count");
      out.Add("dualize.iterations", static_cast<double>(r.iterations),
              "count");
      out.Add("dualize.enum_ms", enum_stats.seconds * 1e3, "ms");
      out.Add("dualize.enum_next_calls",
              static_cast<double>(enum_stats.next_calls), "count");
    }
    return secs;
  };

  if (!args.trace) {
    // One set-up section before each repeat spreads the set-up samples
    // over the whole run.
    std::vector<double> setup, times;
    const double stop = Now() + args.seconds;
    while (times.size() < 3 || Now() < stop) {
      setup.push_back(setup_section());
      times.push_back(run_op(times.size(), &off, false));
    }
    out.Add("setup_s", Median(setup), "s");
    out.Add("op_ms_trimmed_mean", TrimmedMean(times) * 1e3, "ms");
    out.Add("op_ms_tail", TailPercentile(times) * 1e3, "ms");
    out.samples = times.size();
    return out;
  }

  // Traced run: labelling 0 untraced, then decorated and traced.
  const double untraced = run_op(0, &off, false);
  const double traced = run_op(0, &tracer, true);

  // The shared replays run over the levelwise theory of labelling 0.
  Instance inst = MakeInstance(args.seed * 1000003);
  hgm::AprioriOptions options;
  options.pool = &pool;
  const hgm::AprioriResult ref =
      hgm::MineFrequentSets(&inst.db, kMinSupport, options);
  AddTheoryReplays(&inst.db, kMinSupport, ref, &pool, &tracer, &out);
  FinishTrace(args, tracer, untraced, traced, &out);
  return out;
}

}  // namespace perfbench
