// Per-layer replays shared by every workload's traced run.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/apriori_gen.h"
#include "hypergraph/hypergraph.h"
#include "workloads.h"

namespace perfbench {

namespace {

hgm::ItemVec ToItemVec(const hgm::Bitset& b) {
  hgm::ItemVec v;
  for (size_t i : b.Indices()) v.push_back(static_cast<uint32_t>(i));
  return v;
}

}  // namespace

double AddTheoryReplays(hgm::TransactionDatabase* db, size_t min_support,
                        const hgm::AprioriResult& ref, hgm::ThreadPool* pool,
                        Tracer* tracer, Outcome* out) {
  const size_t n = db->num_items();
  db->EnsureVerticalIndex();

  // Bitset kernel: IntersectionCount over every pair of item tidsets,
  // repeated to a >= 100 ms section.
  {
    Scope span(tracer, "Bitset::IntersectionCount", "common");
    const size_t words = db->ItemCoverPrebuilt(0).words().size();
    uint64_t sink = 0, word_ops = 0;
    const double t0 = Now();
    while (Now() - t0 < 0.1) {
      for (size_t i = 0; i < n; ++i) {
        const hgm::Bitset& a = db->ItemCoverPrebuilt(i);
        for (size_t j = i + 1; j < n; ++j) {
          sink += a.IntersectionCount(db->ItemCoverPrebuilt(j));
          word_ops += words;
        }
      }
    }
    const double secs = Now() - t0;
    out->Check(sink > 0 || ref.frequent.size() <= 1,
               "bitset replay counted nothing");
    out->Add("bitset.and_count_ns_per_word",
             secs * 1e9 / static_cast<double>(word_ops), "ns");
  }

  // Th and Bd- by level (index = set size).
  std::map<size_t, std::vector<hgm::Bitset>> th_levels, query_levels;
  std::map<hgm::Bitset, size_t> want_support;
  for (const hgm::FrequentItemset& f : ref.frequent) {
    th_levels[f.items.Count()].push_back(f.items);
    query_levels[f.items.Count()].push_back(f.items);
    want_support[f.items] = f.support;
  }
  for (const hgm::Bitset& b : ref.negative_border) {
    query_levels[b.Count()].push_back(b);
  }

  // Candidate generation: AprioriGen on every level of Th.
  double gen_secs = 0;
  {
    Scope span(tracer, "AprioriGen", "common");
    uint64_t candidates = 0;
    for (const auto& [k, sets] : th_levels) {
      if (k == 0) continue;
      std::vector<hgm::ItemVec> level;
      std::unordered_set<hgm::Bitset, hgm::BitsetHash> level_set;
      for (const hgm::Bitset& b : sets) {
        level.push_back(ToItemVec(b));
        level_set.insert(b);
      }
      std::sort(level.begin(), level.end());
      const double t0 = Now();
      candidates += hgm::AprioriGen(level, level_set, n).size();
      gen_secs += Now() - t0;
    }
    out->Add("apriori_gen.ms", gen_secs * 1e3, "ms");
    out->Add("apriori_gen.candidates", static_cast<double>(candidates),
             "count");
  }

  // Support counting over exactly the Theorem 10 queries, level by level.
  double count_secs = 0;
  {
    Scope span(tracer, "TransactionDatabase::CountSupportsVertical",
               "mining");
    hgm::PrefixCoverCache cache(db);
    bool agree = true;
    uint64_t queries = 0;
    for (const auto& [k, sets] : query_levels) {
      const double t0 = Now();
      std::vector<size_t> got = db->CountSupportsVertical(sets, &cache, pool);
      cache.PruneBelow(k);
      count_secs += Now() - t0;
      queries += sets.size();
      for (size_t i = 0; i < sets.size(); ++i) {
        auto it = want_support.find(sets[i]);
        const bool frequent = it != want_support.end();
        agree = agree && (frequent ? got[i] == it->second
                                   : got[i] < min_support);
      }
    }
    out->Check(agree, "replayed supports differ from the mined theory");
    out->Check(queries == ref.support_counts.load(),
               "Theorem 10: queries != |Th| + |Bd-|");
    out->Add("count.ms", count_secs * 1e3, "ms");
    out->Add("count.us_per_query",
             count_secs * 1e6 / static_cast<double>(std::max<uint64_t>(
                                    queries, 1)),
             "us");
  }

  // Maximal-set bookkeeping: AntichainMaximize over Th.
  {
    std::vector<hgm::Bitset> th;
    for (const hgm::FrequentItemset& f : ref.frequent) th.push_back(f.items);
    const double t0 = Now();
    {
      Scope span(tracer, "AntichainMaximize", "hypergraph");
      hgm::AntichainMaximize(&th);
    }
    out->Add("maximize.ms", (Now() - t0) * 1e3, "ms");
    out->Check(Sorted(th) == Sorted(ref.maximal),
               "AntichainMaximize(Th) != Bd+");
  }

  out->Add("queries", static_cast<double>(ref.support_counts.load()),
           "count");
  out->Add("theory.th", static_cast<double>(ref.frequent.size()), "count");
  out->Add("theory.bd_pos", static_cast<double>(ref.maximal.size()),
           "count");
  out->Add("theory.bd_neg", static_cast<double>(ref.negative_border.size()),
           "count");
  return gen_secs + count_secs;
}

void FinishTrace(const RunArgs& args, const Tracer& tracer,
                 double untraced_secs, double traced_secs, Outcome* out) {
  std::set<std::string> traced_layers;
  for (const Span& span : tracer.spans()) traced_layers.insert(span.layer);
  for (const std::string& layer : traced_layers) {
    out->Add("self_ms." + layer, tracer.LayerSelfSeconds(layer) * 1e3, "ms");
  }
  out->Add("trace_overhead_frac", traced_secs / untraced_secs - 1.0, "ratio");
  const std::string path = args.workdir + "/trace_" + args.workload + "_" +
                           std::to_string(args.seed) + ".jsonl";
  out->Check(tracer.Write(path), "cannot write " + path);
}

}  // namespace perfbench
