#include "harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <utility>

#include "common/random.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

std::optional<double> Percentile(std::vector<double> v, double p) {
  const size_t n = v.size();
  // Nearest rank: the ceil(p/100 * n)-th smallest sample.
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0 || rank > n || n - rank < 10) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double TailPercentile(const std::vector<double>& v) {
  for (double p : {99.0, 90.0, 50.0}) {
    if (std::optional<double> q = Percentile(v, p)) return *q;
  }
  return Median(v);
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

namespace {

std::string Number(double v) {
  // Shortest representation that round-trips: every measured digit.
  // A latency that includes a failed request is +inf, which JSON cannot
  // spell; the largest double stands in for it.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace

std::string ResultJson(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

int64_t Tracer::Begin(const std::string& name, const std::string& layer) {
  if (!enabled_) return -1;
  Span span{name, layer, Now(), 0, open_.empty() ? -1 : open_.back(), 0};
  const int64_t index = Record(std::move(span));
  open_.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  SetEnd(index, Now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int64_t Tracer::Record(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::SetEnd(int64_t index, double end) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SelfSeconds(const std::vector<Span>& spans, size_t i) {
  const Span& s = spans[i];
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans) {
    if (c.parent != static_cast<int64_t>(i)) continue;
    const double lo = std::max(c.start, s.start);
    const double hi = std::min(c.end, s.end);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  // Union of the (clipped) child intervals: overlapping children, as the
  // concurrent requests of serve_mixed produce, are covered once.
  double covered = 0, run_lo = 0, run_hi = -1;
  for (const auto& [lo, hi] : kids) {
    if (lo > run_hi) {
      if (run_hi > run_lo) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
    } else {
      run_hi = std::max(run_hi, hi);
    }
  }
  if (run_hi > run_lo) covered += run_hi - run_lo;
  return (s.end - s.start) - covered;
}

double Tracer::LayerSelfSeconds(const std::string& layer) const {
  const std::vector<Span> all = spans();
  double total = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].layer == layer) total += SelfSeconds(all, i);
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"start\": %.9f, \"end\": %.9f, \"parent\": %lld, "
                  "\"request\": %llu}\n",
                  s.start, s.end, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << "{\"name\": \"" << s.name << "\", \"layer\": \"" << s.layer
        << "\", " << buf;
  }
  out.flush();
  return static_cast<bool>(out);
}

std::vector<size_t> ItemPermutation(size_t n, uint64_t seed) {
  hgm::Rng rng(seed);
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng() % i]);
  return perm;
}

hgm::Bitset Permute(const hgm::Bitset& b, const std::vector<size_t>& perm) {
  hgm::Bitset out(b.size());
  for (size_t i : b.Indices()) out.Set(perm[i]);
  return out;
}

hgm::TransactionDatabase Resample(const hgm::TransactionDatabase& population,
                                  size_t rows, uint64_t seed) {
  const std::vector<size_t> perm =
      ItemPermutation(population.num_items(), seed);
  hgm::Rng rng(seed ^ 0x5eed5eed5eed5eedull);
  hgm::TransactionDatabase out(population.num_items());
  for (size_t r = 0; r < rows; ++r) {
    out.AddTransaction(
        Permute(population.row(rng() % population.num_transactions()), perm));
  }
  return out;
}

std::vector<ScheduledRequest> PoissonSchedule(uint64_t seed, double rate,
                                              double seconds,
                                              uint32_t num_items) {
  hgm::Rng rng(seed);
  std::vector<ScheduledRequest> out;
  uint64_t push_rows = 0;
  double t = 0;
  while (true) {
    // Exponential gaps; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= seconds) break;
    ScheduledRequest r;
    r.send_at = t;
    r.session = static_cast<uint32_t>(rng() % 2);
    const double u = rng.UniformDouble();
    if (u < 0.05) {
      r.cls = RequestClass::kPush;
      r.row_offset = push_rows;
      push_rows += 50;
    } else if (u < 0.30) {
      r.cls = RequestClass::kMine;
      r.mine_percent = rng() % 2 == 0 ? 3 : 4;
    } else {
      r.cls = RequestClass::kSupport;
      r.item_a = static_cast<uint32_t>(rng() % num_items);
      do {
        r.item_b = static_cast<uint32_t>(rng() % num_items);
      } while (r.item_b == r.item_a);
      if (r.item_a > r.item_b) std::swap(r.item_a, r.item_b);
    }
    out.push_back(r);
  }
  return out;
}

bool TimingOracle::IsInteresting(const hgm::Bitset& x) {
  Scope span(tracer_, "oracle.IsInteresting", "mining");
  const double t0 = Now();
  const bool v = inner_->IsInteresting(x);
  seconds_ += Now() - t0;
  ++queries_;
  return v;
}

std::vector<uint8_t> TimingOracle::EvaluateBatch(
    std::span<const hgm::Bitset> batch) {
  Scope span(tracer_, "oracle.EvaluateBatch", "mining");
  const double t0 = Now();
  std::vector<uint8_t> out = inner_->EvaluateBatch(batch);
  seconds_ += Now() - t0;
  queries_ += batch.size();
  return out;
}

void TimingEnumerator::Reset(const hgm::Hypergraph& h) {
  Scope span(tracer_, "enumerator.Reset", "hypergraph");
  const double t0 = Now();
  // SetCancellation is not virtual: hand the token on to the engine.
  inner_->SetCancellation(cancel_);
  inner_->Reset(h);
  stats_->seconds += Now() - t0;
}

bool TimingEnumerator::Next(hgm::Bitset* out) {
  Scope span(tracer_, "enumerator.Next", "hypergraph");
  const double t0 = Now();
  const bool more = inner_->Next(out);
  stats_->seconds += Now() - t0;
  ++stats_->next_calls;
  return more;
}

}  // namespace perfbench
