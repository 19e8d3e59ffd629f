#pragma once

/// \file hypergraph.h
/// \brief Simple hypergraphs over a fixed vertex universe (paper Section 3).
///
/// A (simple) hypergraph H on a vertex set R is a collection of non-empty,
/// pairwise-incomparable subsets of R (an antichain).  The library stores an
/// arbitrary edge multiset and provides Minimize() to reduce it to the
/// simple hypergraph min(H) with the same transversals.

#include <string>
#include <string_view>
#include <vector>

#include "common/bitset.h"
#include "common/check.h"
#include "common/status.h"

namespace hgm {

/// \brief An edge list over the vertex universe {0, ..., num_vertices()-1}.
///
/// Edges are Bitsets.  The class does not force simplicity on insertion
/// (several algorithms build intermediate non-simple collections); call
/// Minimize() / IsSimple() where the antichain property is required.
class Hypergraph {
 public:
  /// Creates an edge-free hypergraph on \p num_vertices vertices.
  explicit Hypergraph(size_t num_vertices = 0)
      : num_vertices_(num_vertices) {}

  /// Creates a hypergraph from explicit vertex-index lists.
  static Hypergraph FromEdgeLists(
      size_t num_vertices,
      const std::vector<std::vector<size_t>>& edge_lists) {
    Hypergraph h(num_vertices);
    for (const auto& e : edge_lists) {
      h.AddEdge(Bitset::FromIndices(num_vertices, e));
    }
    return h;
  }

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }

  const std::vector<Bitset>& edges() const { return edges_; }
  const Bitset& edge(size_t i) const { return edges_[i]; }

  /// Appends an edge.  The edge universe must match num_vertices().
  void AddEdge(Bitset edge) {
    HGMINE_DCHECK_EQ(edge.size(), num_vertices_);
    edges_.push_back(std::move(edge));
  }

  /// Appends an edge given as vertex indices.
  void AddEdgeIndices(std::initializer_list<size_t> indices) {
    AddEdge(Bitset::FromIndices(num_vertices_, indices));
  }

  /// Sum of edge cardinalities (the "input size" of HTR instances).
  size_t TotalEdgeSize() const;

  /// Size of the smallest edge; npos for an edge-free hypergraph.
  size_t MinEdgeSize() const;

  /// Size of the largest edge; 0 for an edge-free hypergraph.
  size_t MaxEdgeSize() const;

  /// True iff some edge is empty (such a hypergraph has no transversals).
  bool HasEmptyEdge() const;

  /// True iff the edge set is a simple hypergraph: all edges non-empty and
  /// pairwise incomparable (an antichain), with no duplicates.
  bool IsSimple() const;

  /// Reduces the edge list to min(H): removes duplicates and any edge that
  /// is a superset of another edge.  Preserves the set of (minimal)
  /// transversals.  Empty edges are kept (they make the instance
  /// infeasible) unless \p drop_empty is set.
  void Minimize(bool drop_empty = false);

  /// True iff \p x intersects every edge (paper: x is a transversal of H).
  bool IsTransversal(const Bitset& x) const;

  /// True iff \p x is a transversal and no proper subset of x is.
  /// Equivalent characterization used here: x is a transversal and every
  /// v in x has a *private* edge E with x ∩ E = {v}.
  bool IsMinimalTransversal(const Bitset& x) const;

  /// Returns some edge disjoint from \p x (a witness that x is not a
  /// transversal), or npos if x is a transversal.
  size_t FindMissedEdge(const Bitset& x) const;

  /// Greedily removes vertices from \p x while it stays a transversal,
  /// scanning vertices in increasing order; returns a minimal transversal
  /// contained in x.  Requires x to be a transversal.
  Bitset MinimizeTransversal(Bitset x) const;

  /// The hypergraph whose edges are the complements of this one's edges
  /// (used by Theorem 7: H(S) = { R \ f(phi) : phi in Bd+(S) }).
  Hypergraph ComplementEdges() const;

  /// Per-vertex edge membership counts.
  std::vector<size_t> VertexDegrees() const;

  /// True iff the two hypergraphs have the same edge *sets* (order and
  /// duplicates ignored).
  bool SameEdgeSet(const Hypergraph& other) const;

  /// Edges sorted with a canonical order (for deterministic output/tests).
  std::vector<Bitset> SortedEdges() const;

  /// Renders as "{{0,1},{2}}"-style text, edges in canonical order.
  std::string ToString() const;

  /// Renders using vertex \p names (e.g. "{AC, D}").
  std::string Format(const std::vector<std::string>& names) const;

  /// Parses edge-list text: one edge per line, whitespace- or comma-
  /// separated vertex ids; '#' lines are skipped.  A blank (or
  /// comment-only) line is rejected as an empty edge — an empty edge makes
  /// every instance infeasible, so in a text file it is always a mistake.
  /// \p num_vertices 0 means "infer as max id + 1".  Hardened against
  /// malformed input (overlong lines, out-of-range ids, signs, non-numeric
  /// tokens); failures name \p origin and the offending line.
  static Result<Hypergraph> ParseEdgeListText(
      std::string_view text, size_t num_vertices = 0,
      const std::string& origin = "<edge-list>");

  /// Loads an edge-list file (see ParseEdgeListText).
  static Result<Hypergraph> LoadEdgeListFile(const std::string& path,
                                             size_t num_vertices = 0);

 private:
  size_t num_vertices_;
  std::vector<Bitset> edges_;
};

/// Removes duplicates and non-minimal (superset) sets from \p sets,
/// in place; the result is an antichain of the minimal elements.
void AntichainMinimize(std::vector<Bitset>* sets);

/// Removes duplicates and non-maximal (subset) sets from \p sets,
/// in place; the result is an antichain of the maximal elements.
void AntichainMaximize(std::vector<Bitset>* sets);

/// Bd+ of a downward-closed family in one pass: keeps the members of
/// \p sets that are no other member's immediate subset (x minus one
/// element), drops duplicates, and preserves input order otherwise.
/// Hashes Σ|x| immediate subsets instead of comparing all pairs, and
/// returns the same family as AntichainMaximize when \p sets is downward
/// closed (every subset of a member is a member).  On a family that is
/// not, it may keep non-maximal sets; -DHGMINE_AUDIT=ON builds cross-check
/// every call against AntichainMaximize.
void DownwardClosedMaximize(std::vector<Bitset>* sets);

}  // namespace hgm
