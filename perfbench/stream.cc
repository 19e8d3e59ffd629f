// stream_window: a StreamMiner with a 20,000-row window sliding by 2,000
// rows over a Quest feed (100 items, T=8, minsup 2.5% of the window = 500).
// Each boundary pushes one slide (writes: push and expire) and repairs the
// borders (reads), so the counting kernels run incrementally on bucket
// deltas.  The timed metric is the per-boundary AdvanceWindow.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mining/generators.h"
#include "mining/stream.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kItems = 100;
constexpr size_t kWindow = 20000;
constexpr size_t kSlide = 2000;
constexpr size_t kMinSupport = 500;  // 2.5% of kWindow
constexpr size_t kFeedRows = 200000; // cycled; 100 slides before it wraps
constexpr size_t kWarmup = 5;        // boundaries after set-up, untimed
constexpr size_t kMinBoundaries = 100;
// Untraced runs check the windows of boundaries 20, 40, ..., 200.
constexpr size_t kCheckEvery = 20;
constexpr size_t kChecks = 10;
constexpr size_t kTracedBoundaries = 100;
// Set-up samples taken before the timed loop; one more follows every
// kSetupEvery timed boundaries, so the samples spread over the run.
constexpr int kSetupReps = 5;
constexpr size_t kSetupEvery = 50;

bool SameWindow(const hgm::StreamWindowResult& s,
                const hgm::AprioriResult& b) {
  return hgm::serve::TheoryFingerprint(s.frequent, s.maximal,
                                       s.negative_border) ==
         hgm::serve::TheoryFingerprint(b.frequent, b.maximal,
                                       b.negative_border);
}

}  // namespace

Outcome RunStream(const RunArgs& args) {
  Outcome out;
  Tracer tracer(args.trace);
  Tracer off(false);

  hgm::TransactionDatabase feed;
  {
    hgm::QuestParams params;
    params.num_transactions = kFeedRows;
    params.avg_transaction_size = 8;
    params.num_items = kItems;
    hgm::Rng rng(kShapeSeed);
    feed = Resample(hgm::GenerateQuest(params, &rng), kFeedRows, args.seed);
  }
  hgm::ThreadPool pool(1);
  size_t cursor = 0;  // the timed miner's position in the feed

  // Pushes one slide of the (cycled) feed from *at; returns the push
  // seconds.
  auto push_slide = [&](hgm::StreamMiner* miner, size_t* at, Tracer* t) {
    Scope span(t, "StreamMiner::Push", "mining");
    const double t0 = Now();
    bool due = false;
    for (size_t i = 0; i < kSlide; ++i) {
      due = miner->Push(feed.row((*at)++ % kFeedRows));
    }
    out.Check(due, "no boundary after a full slide");
    return Now() - t0;
  };
  auto advance = [&](hgm::StreamMiner* miner, Tracer* t) {
    Scope span(t, "StreamMiner::AdvanceWindow", "mining");
    return miner->AdvanceWindow();
  };
  // Re-mines a WindowSnapshot and compares it with the repaired window.
  auto check = [&](hgm::TransactionDatabase* snap,
                   const hgm::StreamWindowResult& r, Tracer* t) {
    Scope span(t, "MineFrequentSets(WindowSnapshot)", "mining");
    const double t0 = Now();
    hgm::AprioriOptions options;
    options.pool = &pool;
    const hgm::AprioriResult batch =
        hgm::MineFrequentSets(snap, kMinSupport, options);
    out.Check(r.stop_reason == hgm::StopReason::kCompleted &&
                  SameWindow(r, batch),
              "repaired window differs from a re-mine of WindowSnapshot");
    return Now() - t0;
  };

  // Set-up: construction, the first window fill and its boundaries of a
  // fresh miner, the feed restarting at *at = 0.
  std::vector<double> setup;
  auto set_up = [&](size_t* at) {
    *at = 0;
    const double t0 = Now();
    hgm::StreamOptions options;
    options.slide_rows = kSlide;
    options.pool = &pool;
    auto m = std::make_unique<hgm::StreamMiner>(kItems, kMinSupport, kWindow,
                                                options);
    while (m->rows_in_window() < kWindow) {
      push_slide(m.get(), at, &off);
      advance(m.get(), &off);
    }
    setup.push_back(Now() - t0);
    return m;
  };
  std::unique_ptr<hgm::StreamMiner> miner;
  for (int rep = 0; rep < kSetupReps; ++rep) miner = set_up(&cursor);
  for (size_t b = 0; b < kWarmup; ++b) {
    push_slide(miner.get(), &cursor, &off);
    advance(miner.get(), &off);
  }

  // One boundary: push untimed, AdvanceWindow timed.
  auto boundary = [&](Tracer* t, hgm::StreamWindowResult* r) {
    push_slide(miner.get(), &cursor, t);
    const double t0 = Now();
    *r = advance(miner.get(), t);
    return Now() - t0;
  };

  if (!args.trace) {
    // The sampled windows are kept and re-mined after the timed loop, so
    // the checks do not disturb the boundaries being timed.
    std::vector<double> times;
    std::vector<std::pair<hgm::TransactionDatabase, hgm::StreamWindowResult>>
        sampled;
    const double stop = Now() + args.seconds;
    while (times.size() < kMinBoundaries || Now() < stop) {
      hgm::StreamWindowResult r;
      times.push_back(boundary(&off, &r));
      if (times.size() % kCheckEvery == 0 &&
          sampled.size() < kChecks) {
        sampled.emplace_back(miner->WindowSnapshot(), std::move(r));
      }
      if (times.size() % kSetupEvery == 0) {
        size_t at = 0;
        set_up(&at);
      }
    }
    for (auto& [snap, r] : sampled) check(&snap, r, &off);
    out.Add("setup_s", Median(setup), "s");
    out.Add("op_ms_trimmed_mean", TrimmedMean(times) * 1e3, "ms");
    out.Add("op_ms_tail", TailPercentile(times) * 1e3, "ms");
    out.samples = times.size();
    return out;
  }

  // Traced run: kTracedBoundaries untraced, then kTracedBoundaries traced
  // with a re-mine check at every boundary.
  std::vector<double> untraced, traced, remine;
  double push_secs = 0;
  uint64_t evaluations = 0, reused = 0;
  for (size_t b = 0; b < kTracedBoundaries; ++b) {
    hgm::StreamWindowResult r;
    untraced.push_back(boundary(&off, &r));
  }
  for (size_t b = 0; b < kTracedBoundaries; ++b) {
    hgm::StreamWindowResult r;
    push_secs += push_slide(miner.get(), &cursor, &tracer);
    const double t0 = Now();
    r = advance(miner.get(), &tracer);
    traced.push_back(Now() - t0);
    evaluations += r.evaluations;
    reused += r.reused;
    hgm::TransactionDatabase snap = miner->WindowSnapshot();
    remine.push_back(check(&snap, r, &tracer));
  }
  out.Add("stream.push_us_per_row",
          push_secs * 1e6 / static_cast<double>(kTracedBoundaries * kSlide),
          "us");
  out.Add("stream.evaluations", static_cast<double>(evaluations), "count");
  out.Add("stream.reused_frac",
          static_cast<double>(reused) /
              static_cast<double>(evaluations + reused),
          "ratio");
  out.Add("stream.remine_ms_p50", Median(remine) * 1e3, "ms");

  hgm::TransactionDatabase snap = miner->WindowSnapshot();
  hgm::AprioriOptions options;
  options.pool = &pool;
  const hgm::AprioriResult ref =
      hgm::MineFrequentSets(&snap, kMinSupport, options);
  AddTheoryReplays(&snap, kMinSupport, ref, &pool, &tracer, &out);
  FinishTrace(args, tracer, Median(untraced), Median(traced), &out);
  return out;
}

}  // namespace perfbench
