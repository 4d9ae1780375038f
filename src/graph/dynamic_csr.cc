#include "graph/dynamic_csr.h"

#include <algorithm>

namespace avt {

void DynamicCsr::Rebuild(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  slabs_.assign(static_cast<size_t>(n), Slab{});
  live_ = 0;
  dead_ = 0;
  relocations_ = 0;
  compactions_ = 0;

  uint64_t total = 0;
  for (VertexId u = 0; u < n; ++u) {
    const uint32_t deg = graph.Degree(u);
    slabs_[u].offset = total;
    slabs_[u].degree = deg;
    slabs_[u].capacity = deg + SlackFor(deg);
    total += slabs_[u].capacity;
    live_ += deg;
  }
  targets_.assign(total, 0);
  for (VertexId u = 0; u < n; ++u) {
    std::span<const VertexId> nbrs = graph.Neighbors(u);
    std::copy(nbrs.begin(), nbrs.end(),
              targets_.begin() + static_cast<ptrdiff_t>(slabs_[u].offset));
  }
}

void DynamicCsr::AddEdge(VertexId u, VertexId v) {
  AVT_DCHECK(u < NumVertices() && v < NumVertices() && u != v);
  Append(u, v);
  Append(v, u);
  live_ += 2;
  MaybeCompact();
}

void DynamicCsr::RemoveEdge(VertexId u, VertexId v) {
  AVT_DCHECK(u < NumVertices() && v < NumVertices() && u != v);
  RemoveEdge(u, v, Graph::ErasedSlots{Find(u, v), Find(v, u)});
}

void DynamicCsr::RemoveEdge(VertexId u, VertexId v,
                            const Graph::ErasedSlots& slots) {
  EraseAt(u, slots.in_u, v);
  EraseAt(v, slots.in_v, u);
  live_ -= 2;
}

void DynamicCsr::Append(VertexId u, VertexId v) {
  if (slabs_[u].degree == slabs_[u].capacity) {
    Relocate(u, slabs_[u].degree + 1);
  }
  targets_[slabs_[u].offset + slabs_[u].degree] = v;
  ++slabs_[u].degree;
}

uint32_t DynamicCsr::Find(VertexId u, VertexId v) const {
  const std::span<const VertexId> nbrs = Neighbors(u);
  return static_cast<uint32_t>(std::find(nbrs.begin(), nbrs.end(), v) -
                               nbrs.begin());
}

void DynamicCsr::EraseAt(VertexId u, uint32_t pos, VertexId v) {
  Slab& slab = slabs_[u];
  VertexId* data = targets_.data() + slab.offset;
  AVT_CHECK_MSG(pos < slab.degree && data[pos] == v,
                "DynamicCsr::RemoveEdge: edge absent from mirror slot");
  data[pos] = data[slab.degree - 1];
  --slab.degree;
}

void DynamicCsr::Relocate(VertexId u, uint32_t min_capacity) {
  // Geometric growth caps relocations per vertex at O(log deg); the
  // abandoned slab is reclaimed by the next compaction.
  Slab& slab = slabs_[u];
  const uint32_t new_capacity =
      std::max({min_capacity, 2 * slab.capacity, uint32_t{4}});
  const uint64_t new_offset = targets_.size();
  targets_.resize(new_offset + new_capacity);
  std::copy(targets_.begin() + static_cast<ptrdiff_t>(slab.offset),
            targets_.begin() +
                static_cast<ptrdiff_t>(slab.offset + slab.degree),
            targets_.begin() + static_cast<ptrdiff_t>(new_offset));
  dead_ += slab.capacity;
  slab.offset = new_offset;
  slab.capacity = new_capacity;
  ++relocations_;
}

void DynamicCsr::MaybeCompact() {
  // Compact when stranded garbage exceeds the live payload (plus a
  // floor so tiny graphs don't thrash): total storage then stays within
  // a constant factor of 2m while each live entry is moved at most once
  // per doubling of garbage — amortized O(1) per update.
  if (dead_ > live_ + 1024) Compact();
}

void DynamicCsr::Compact() {
  const VertexId n = NumVertices();
  uint64_t total = 0;
  // First pass: new slab geometry (fresh slack, like Rebuild).
  std::vector<uint64_t> new_offsets(n);
  for (VertexId u = 0; u < n; ++u) {
    new_offsets[u] = total;
    total += slabs_[u].degree + SlackFor(slabs_[u].degree);
  }
  std::vector<VertexId> packed(total);
  for (VertexId u = 0; u < n; ++u) {
    Slab& slab = slabs_[u];
    std::copy(targets_.begin() + static_cast<ptrdiff_t>(slab.offset),
              targets_.begin() +
                  static_cast<ptrdiff_t>(slab.offset + slab.degree),
              packed.begin() + static_cast<ptrdiff_t>(new_offsets[u]));
    slab.offset = new_offsets[u];
    slab.capacity = slab.degree + SlackFor(slab.degree);
  }
  targets_ = std::move(packed);
  dead_ = 0;
  ++compactions_;
}

}  // namespace avt
