#pragma once

/// \file apriori_gen.h
/// \brief Levelwise candidate generation over the subset lattice.
///
/// Step 5 of Algorithm 9 specialized to languages represented as sets:
/// given the interesting sets of size k (as sorted index vectors, sorted
/// lexicographically), produce the candidate sets of size k+1 all of whose
/// k-subsets are interesting.  This is the classic apriori-gen join+prune
/// of [2]; the paper notes it "uses only a negligible amount of time"
/// compared to evaluating the quality predicate.

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bitset.h"

namespace hgm {

using ItemVec = std::vector<uint32_t>;

/// One candidate's two join parents: indices into the level it was
/// joined from.
using JoinParents = std::pair<size_t, size_t>;

/// Joins lexicographically sorted k-sets sharing a (k-1)-prefix and prunes
/// candidates with a non-interesting k-subset.  \p level must be sorted,
/// duplicate-free and contain sets of equal size k >= 1; \p level_set must
/// contain exactly the Bitset forms of \p level.  Returns the sorted
/// (k+1)-candidates; when \p parents is non-null it receives, in step,
/// the indices into \p level of each candidate's two join parents.
inline std::vector<ItemVec> AprioriGen(
    const std::vector<ItemVec>& level,
    const std::unordered_set<Bitset, BitsetHash>& level_set, size_t n,
    std::vector<JoinParents>* parents = nullptr) {
  std::vector<ItemVec> candidates;
  if (parents != nullptr) parents->clear();
  if (level.empty()) return candidates;
  const size_t k = level[0].size();
  for (size_t i = 0; i < level.size(); ++i) {
    for (size_t j = i + 1; j < level.size(); ++j) {
      if (!std::equal(level[i].begin(), level[i].end() - 1,
                      level[j].begin())) {
        break;  // sorted input keeps shared-prefix blocks contiguous
      }
      // Sorted, duplicate-free input: level[i].back() < level[j].back(),
      // so the candidate is sorted and the candidates come out in order.
      ItemVec cand = level[i];
      cand.push_back(level[j].back());
      bool ok = true;
      for (size_t drop = 0; ok && drop + 2 <= cand.size(); ++drop) {
        ItemVec sub;
        sub.reserve(k);
        for (size_t t = 0; t < cand.size(); ++t) {
          if (t != drop) sub.push_back(cand[t]);
        }
        ok = level_set.contains(Bitset::FromIndices(n, sub));
      }
      if (ok) {
        candidates.push_back(std::move(cand));
        if (parents != nullptr) parents->emplace_back(i, j);
      }
    }
  }
  return candidates;
}

/// All singleton candidates {0}, ..., {n-1} (level-1 seeding).
inline std::vector<ItemVec> SingletonCandidates(size_t n) {
  std::vector<ItemVec> out;
  out.reserve(n);
  for (uint32_t v = 0; v < n; ++v) out.push_back(ItemVec{v});
  return out;
}

}  // namespace hgm
