#pragma once

/// \file harness.h
/// \brief Measurement helpers shared by the perfbench workloads: clocks and
/// percentiles, an in-memory span recorder, the open-loop Poisson schedule
/// of serve_mixed, decorators that time calls into the core and hypergraph
/// layers, and the result line run.py reads.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "hypergraph/transversal.h"
#include "mining/transaction_db.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double Now();

/// Median of \p v (mean of the two middle values for even sizes).  Used for
/// in-run repeats of sections that each last >= 100 ms.  \p v non-empty.
double Median(std::vector<double> v);

/// Mean of \p v without its lowest and highest tenth (n / 10 samples on
/// each side).  This host runs in fast and slow phases some 30% apart; the
/// median jumps between the two modes when a run spends about half its
/// time in each, while this mean moves only in proportion to the slow
/// share, and the trimmed tenths keep a stall from moving it.  \p v
/// non-empty.
double TrimmedMean(std::vector<double> v);

/// Nearest-rank percentile \p p (0 < p < 100) of \p v, refused (nullopt)
/// when fewer than 10 samples lie beyond it: a tail read from fewer points
/// is one outlier wide.
std::optional<double> Percentile(std::vector<double> v, double p);

/// The highest of p99, p90 and p50 that Percentile accepts, or the plain
/// median when none is (then the samples must each be >= 100 ms sections).
double TailPercentile(const std::vector<double>& v);

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload reports: the operation tally and its metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  size_t samples = 0;  // timed operations behind op_ms_*, for the log line

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; a false \p ok fails it and the run.
  void Check(bool ok, const std::string& what);
  /// Counts one operation the program refused in a legal, typed way (a
  /// shed): failed, but not wrong.
  void Refused() {
    ++attempted;
    ++failed;
  }
};

/// The single JSON object run.py reads from the last stdout line.
std::string ResultJson(const Outcome& out);

/// A timed interval recorded by the benchmark around a call into one of
/// the program's modules (its layer).
struct Span {
  std::string name;
  std::string layer;  // common, mining, core, hypergraph or serve
  double start = 0;
  double end = 0;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  uint64_t request = 0; // serve request id, 0 elsewhere
};

/// In-memory span store.  Disabled tracers record nothing, so the timed
/// (untraced) runs pay one branch per span site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open span of this thread's
  /// stack (single-threaded callers only) and returns its index, or -1
  /// when disabled.
  int64_t Begin(const std::string& name, const std::string& layer);
  void End(int64_t index);

  /// Records a span from any thread; \p span.end may be filled in later
  /// with SetEnd.
  int64_t Record(Span span);
  void SetEnd(int64_t index, double end);

  std::vector<Span> spans() const;

  /// Sum over all spans of \p layer of their self time in seconds: the
  /// span's duration minus the part of its interval that the union of
  /// its children covers.
  double LayerSelfSeconds(const std::string& layer) const;

  /// Writes every span as JSON lines to \p path; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::vector<int64_t> open_;  // Begin/End stack (single-threaded use)
};

/// Self time of spans[i] within \p spans (see Tracer::LayerSelfSeconds).
double SelfSeconds(const std::vector<Span>& spans, size_t i);

/// RAII span on a Tracer.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, const std::string& layer)
      : tracer_(tracer), index_(tracer->Begin(name, layer)) {}
  ~Scope() { tracer_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// A seeded permutation of the items 0..n-1.
std::vector<size_t> ItemPermutation(size_t n, uint64_t seed);

/// \p b with every item i renamed to perm[i].
hgm::Bitset Permute(const hgm::Bitset& b, const std::vector<size_t>& perm);

/// \p rows rows drawn with replacement from \p population, items renamed
/// by ItemPermutation(seed).  Every workload draws its inputs this way from
/// a population of fixed shape: the seed changes the rows and the labels
/// but not how much work they take, which a fresh Quest pattern table
/// would (Apriori time on 200k rows moves 4x between seeds).
hgm::TransactionDatabase Resample(const hgm::TransactionDatabase& population,
                                  size_t rows, uint64_t seed);

/// The request classes of serve_mixed's traffic mix.
enum class RequestClass { kPush, kMine, kSupport };

/// One scheduled request of the open-loop generator.
struct ScheduledRequest {
  double send_at = 0;  // seconds after the schedule starts
  RequestClass cls = RequestClass::kSupport;
  uint32_t session = 0;      // 0 or 1
  uint32_t mine_percent = 0; // 3 or 4 for mines
  uint32_t item_a = 0, item_b = 0;  // support itemset (a < b)
  uint64_t row_offset = 0;   // pushes: first row of the push pool
};

/// Poisson arrivals at \p rate per second over \p seconds: 5% push, 25%
/// mine at 3% or 4%, 70% two-item support over \p num_items items, spread
/// evenly over two sessions.  A pure function of its arguments.
std::vector<ScheduledRequest> PoissonSchedule(uint64_t seed, double rate,
                                              double seconds,
                                              uint32_t num_items);

/// Pass-through oracle that times and counts every call into \p inner and
/// records each batch as a span on \p tracer.
class TimingOracle : public hgm::InterestingnessOracle {
 public:
  TimingOracle(hgm::InterestingnessOracle* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  bool IsInteresting(const hgm::Bitset& x) override;
  std::vector<uint8_t> EvaluateBatch(
      std::span<const hgm::Bitset> batch) override;
  size_t num_items() const override { return inner_->num_items(); }

  double seconds() const { return seconds_; }
  uint64_t queries() const { return queries_; }

 private:
  hgm::InterestingnessOracle* inner_;
  Tracer* tracer_;
  double seconds_ = 0;
  uint64_t queries_ = 0;
};

/// Pass-through transversal enumerator that times Reset/Next on the
/// wrapped engine and counts Next calls; the counters live in \p stats so
/// they survive the enumerator, which the caller's factory hands away.
struct EnumeratorStats {
  double seconds = 0;
  uint64_t next_calls = 0;
};
class TimingEnumerator : public hgm::TransversalEnumerator {
 public:
  TimingEnumerator(std::unique_ptr<hgm::TransversalEnumerator> inner,
                   EnumeratorStats* stats, Tracer* tracer)
      : inner_(std::move(inner)), stats_(stats), tracer_(tracer) {}
  std::string name() const override { return inner_->name(); }
  void Reset(const hgm::Hypergraph& h) override;
  bool Next(hgm::Bitset* out) override;

 private:
  std::unique_ptr<hgm::TransversalEnumerator> inner_;
  EnumeratorStats* stats_;
  Tracer* tracer_;
};

}  // namespace perfbench
