// Dynamic undirected simple graph over a fixed vertex universe.
//
// The paper models an evolving network as a sequence of snapshots sharing
// one vertex set V (dummy vertices stand in for not-yet-joined users), so
// Graph keeps the vertex count fixed and supports edge insertion and
// deletion in O(deg). Neighbor lists are unsorted vectors; deletion swaps
// with the back. This favors the access pattern of every algorithm in the
// library — full neighbor scans — over ordered iteration.

#ifndef AVT_GRAPH_GRAPH_H_
#define AVT_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"

namespace avt {

/// Vertex identifier: dense index in [0, NumVertices).
using VertexId = uint32_t;

/// Undirected edge as an unordered pair; normalized so u <= v.
struct Edge {
  VertexId u;
  VertexId v;

  Edge() : u(0), v(0) {}
  Edge(VertexId a, VertexId b) : u(a < b ? a : b), v(a < b ? b : a) {}

  friend bool operator==(const Edge& lhs, const Edge& rhs) {
    return lhs.u == rhs.u && lhs.v == rhs.v;
  }
  friend bool operator<(const Edge& lhs, const Edge& rhs) {
    return lhs.u != rhs.u ? lhs.u < rhs.u : lhs.v < rhs.v;
  }
};

/// Dynamic undirected simple graph.
class Graph {
 public:
  Graph() = default;
  explicit Graph(VertexId num_vertices) : adjacency_(num_vertices) {}

  /// Builds a graph from an edge list; duplicate edges and self-loops are
  /// silently skipped (generators may emit them).
  static Graph FromEdges(VertexId num_vertices,
                         const std::vector<Edge>& edges);

  /// Reconstructs a graph from verbatim per-vertex neighbor lists —
  /// ORDER INCLUDED. Neighbor order is history-dependent (AddEdge
  /// appends, RemoveEdge swaps with the back) and algorithms scan it,
  /// so a checkpoint restore that merely re-added the edge set could
  /// legally produce different tie-breaks; this keeps the restored
  /// graph bit-identical to the saved one. The lists arrive from disk,
  /// so every structural invariant (endpoints in range, no self-loops,
  /// no duplicates, symmetric membership) is validated and a violation
  /// is a kCorruption Status, never a crash.
  static StatusOr<Graph> FromAdjacency(
      std::vector<std::vector<VertexId>> adjacency);

  VertexId NumVertices() const {
    return static_cast<VertexId>(adjacency_.size());
  }
  uint64_t NumEdges() const { return num_edges_; }

  /// Appends an isolated vertex and returns its id.
  VertexId AddVertex() {
    adjacency_.emplace_back();
    return static_cast<VertexId>(adjacency_.size() - 1);
  }

  /// Grows the vertex universe so `v` is a valid id (no-op when it
  /// already is); new vertices are isolated. Streaming delta sources
  /// discover vertices mid-stream, and an edge referencing an unseen id
  /// must grow the universe explicitly here — Graph::AddEdge treats an
  /// out-of-range endpoint as a programming error, not a growth request.
  void EnsureVertex(VertexId v) {
    if (v >= NumVertices()) {
      adjacency_.resize(static_cast<size_t>(v) + 1);
    }
  }

  /// Inserts edge (u, v). Returns false (and does nothing) if the edge
  /// already exists or u == v.
  bool AddEdge(VertexId u, VertexId v);

  /// Removes edge (u, v). Returns false if absent.
  bool RemoveEdge(VertexId u, VertexId v);

  bool HasEdge(VertexId u, VertexId v) const;

  uint32_t Degree(VertexId u) const {
    AVT_DCHECK(u < NumVertices());
    return static_cast<uint32_t>(adjacency_[u].size());
  }

  std::span<const VertexId> Neighbors(VertexId u) const {
    AVT_DCHECK(u < NumVertices());
    return adjacency_[u];
  }

  /// Materializes all edges (normalized, u <= v), sorted.
  std::vector<Edge> CollectEdges() const;

  /// Snapshots the adjacency into a contiguous CSR view (O(n + m)).
  /// Neighbor order per vertex is preserved exactly, so algorithms give
  /// bit-identical results whether they scan the view or the graph. The
  /// view does not track later mutations.
  CsrView BuildCsr() const;

  /// Same snapshot into caller-owned buffers: `out`'s vectors are
  /// resized in place, so a view reused across per-snapshot solves
  /// stops reallocating offsets/targets once it reaches its high-water
  /// capacity.
  void BuildCsr(CsrView* out) const;

  /// Average degree 2m/n (0 for empty graph).
  double AverageDegree() const {
    return adjacency_.empty()
               ? 0.0
               : 2.0 * static_cast<double>(num_edges_) /
                     static_cast<double>(adjacency_.size());
  }

  /// Maximum degree over all vertices.
  uint32_t MaxDegree() const;

  friend bool operator==(const Graph& lhs, const Graph& rhs) {
    return lhs.NumVertices() == rhs.NumVertices() &&
           lhs.num_edges_ == rhs.num_edges_ &&
           lhs.CollectEdges() == rhs.CollectEdges();
  }

 private:
  std::vector<std::vector<VertexId>> adjacency_;
  uint64_t num_edges_ = 0;
};

}  // namespace avt

#endif  // AVT_GRAPH_GRAPH_H_
