// Exact, partition-invariant event ordering for conservative-parallel runs.
//
// Sequentially, events at the same instant fire in scheduling (FIFO seq)
// order. That global order is a recursive property: two same-time events
// were scheduled either at different instants (earlier instant first), or by
// the same parent event (the parent's scheduling order decides), or by two
// parent events that themselves executed at the same instant — in which case
// the parents' own order decides, recursively. A fixed-size key cannot carry
// that recursion: synchronized workloads (incast waves ACK-clocked in lock
// step) produce ties whose resolution lives arbitrarily deep in the
// scheduling ancestry.
//
// So parallel mode materializes the ancestry. Every scheduled event appends
// an immutable node {sigma, parent, k} to a per-domain arena:
//   sigma  - the instant it was scheduled (its parent's execution time);
//   parent - the node of the event that scheduled it (kNull for setup);
//   k      - its index among that parent's schedulings (for setup-time
//            roots, a caller-provided global index: the flow launch order).
// less(a, b) then replays the sequential tie-break exactly:
//   walk:  different sigma        -> earlier sigma first
//          same parent            -> smaller k first
//          different parents      -> recurse on the parents (both executed
//                                    at the same instant, so their order is
//                                    the same question one level up)
//          root vs non-root       -> root first (setup precedes execution)
// The walk terminates: chains are finite and converging chains are caught by
// the same-parent test one level before they meet.
//
// Concurrency: arenas are append-only and single-writer (each domain's
// worker appends only to its own arena). Readers in other domains only ever
// follow node ids that crossed a mailbox + barrier, so every node they can
// name — and its whole ancestor chain — was fully written before a
// happens-before edge they are downstream of. Chunk pointers are atomic so
// a reader's walk through old chunks never races the owner publishing a new
// one.
//
// Memory: nodes are 24 bytes, and without reclamation every event ever
// scheduled keeps one until the run ends. rebase() bounds that. It runs
// between chunks, while every domain is quiescent, on the set of node ids
// that can still be read (pending events, mailbox records, executing-event
// cursors). Setup roots are copied unchanged — their k is a global launch
// or timer index that later roots compare against. Every other survivor is
// ranked once with less() and becomes {sigma, kRebased, rank}; the arenas
// then restart from their first chunk (chunks stay allocated, so memory is
// bounded by one chunk interval's node count, not by run length). Order
// survives the rebase:
//   - survivor vs survivor: (sigma, rank) is exactly the old walk's order;
//   - survivor vs a node interned later: every survivor was scheduled at or
//     before the barrier instant T, every later non-root node by an event
//     executing after T, so sigma decides, as before;
//   - survivor vs setup root (sigma 0): both walks end comparing a non-null
//     parent (old P, or kRebased) against kNull, and setup comes first.
// The second case needs every node interned after the rebase with
// sigma <= T to be a setup root, i.e. out-of-event schedulings at a barrier
// must re-enter the setup context first (Simulator::set_setup_index).
// Anything else holding node ids across the barrier (trace records,
// deferred completion lists) must be empty or included, which is why traced
// runs keep the whole arena instead.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/dcheck.h"

namespace pase::sim {

using Time = double;  // mirrors simulator.h (no circular include)

class DetLineage {
 public:
  using NodeId = std::uint64_t;
  static constexpr NodeId kNull = ~NodeId{0};

  explicit DetLineage(int domains) {
    arenas_.reserve(static_cast<std::size_t>(domains));
    for (int d = 0; d < domains; ++d) {
      arenas_.emplace_back();
      arenas_.back().chunks =
          std::make_unique<std::atomic<Node*>[]>(kMaxChunks);
    }
  }

  ~DetLineage() {
    for (Arena& a : arenas_) {
      for (std::size_t c = 0; c < a.allocated; ++c) {
        delete[] a.chunks[c].load(std::memory_order_relaxed);
      }
    }
  }

  DetLineage(const DetLineage&) = delete;
  DetLineage& operator=(const DetLineage&) = delete;

  // Appends a node to `domain`'s arena. Must be called only by the thread
  // running that domain. Aborts, naming the node count, once the arena holds
  // kMaxChunks * kChunkSize nodes — reachable only by runs that never
  // rebase (traced runs), and checked in every build.
  NodeId add(int domain, Time sigma, NodeId parent, std::uint32_t k) {
    Arena& a = arenas_[static_cast<std::size_t>(domain)];
    const std::size_t i = a.count++;
    const std::size_t c = i >> kChunkShift;
    if (c >= kMaxChunks) [[unlikely]] exhausted(domain, i);
    Node* chunk = a.chunks[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) [[unlikely]] {
      chunk = new Node[kChunkSize];
      a.chunks[c].store(chunk, std::memory_order_release);
      a.allocated = c + 1;
    }
    chunk[i & (kChunkSize - 1)] = Node{sigma, parent, k, 0};
    return (static_cast<NodeId>(domain) << kDomainShift) |
           static_cast<NodeId>(i);
  }

  // Strict weak order reproducing the sequential same-instant fire order.
  // Both ids (and hence their ancestries) must already be visible to the
  // calling thread; see the file comment.
  bool less(NodeId a, NodeId b) const {
    while (true) {
      if (a == b) return false;
      if (a == kNull) return true;   // setup precedes all execution
      if (b == kNull) return false;
      PASE_DCHECK(a != kRebased && b != kRebased &&
                  "non-root node interned after a rebase ties a survivor");
      const Node& na = node(a);
      const Node& nb = node(b);
      if (na.sigma != nb.sigma) return na.sigma < nb.sigma;
      if (na.parent == nb.parent) return na.k < nb.k;
      a = na.parent;
      b = nb.parent;
    }
  }

  // Total nodes currently interned (telemetry; owner threads quiescent).
  std::size_t nodes() const {
    std::size_t n = 0;
    for (const Arena& a : arenas_) n += a.count;
    return n;
  }
  // High-water mark of nodes() over the run, rebases included: the arena's
  // actual memory bound (telemetry; owner threads quiescent).
  std::size_t peak_nodes() const { return std::max(peak_nodes_, nodes()); }
  // rebase() calls so far.
  std::uint64_t rebases() const { return rebases_; }

  // Rewrites every node id in `refs` (kNull entries are skipped; an id may
  // appear more than once) into a fresh arena and drops every other node —
  // see "Memory" in the file comment for the order argument. All owner
  // threads must be quiescent, and `refs` must name every id that will ever
  // be read again.
  void rebase(const std::vector<NodeId*>& refs) {
    peak_nodes_ = peak_nodes();
    ++rebases_;
    live_.clear();
    for (const NodeId* r : refs) {
      if (*r != kNull) live_.push_back(Live{*r, node(*r), 0});
    }
    std::sort(live_.begin(), live_.end(),
              [](const Live& a, const Live& b) { return a.id < b.id; });
    live_.erase(std::unique(live_.begin(), live_.end(),
                            [](const Live& a, const Live& b) {
                              return a.id == b.id;
                            }),
                live_.end());
    // Rank the non-roots in the old order; equivalent ids share a rank.
    ranked_.clear();
    for (std::uint32_t j = 0; j < live_.size(); ++j) {
      if (live_[j].n.parent != kNull) ranked_.push_back(j);
    }
    std::sort(ranked_.begin(), ranked_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return less(live_[a].id, live_[b].id);
              });
    std::uint32_t rank = 0;
    for (std::size_t r = 0; r < ranked_.size(); ++r) {
      if (r > 0 && less(live_[ranked_[r - 1]].id, live_[ranked_[r]].id)) {
        ++rank;
      }
      Node& n = live_[ranked_[r]].n;
      n.parent = kRebased;
      n.k = rank;
    }
    for (Arena& a : arenas_) a.count = 0;
    for (Live& l : live_) {
      l.fresh = add(static_cast<int>(l.id >> kDomainShift), l.n.sigma,
                    l.n.parent, l.n.k);
    }
    for (NodeId* r : refs) {
      if (*r == kNull) continue;
      *r = std::lower_bound(live_.begin(), live_.end(), *r,
                            [](const Live& l, NodeId id) { return l.id < id; })
               ->fresh;
    }
  }

 private:
  struct Node {
    Time sigma;       // instant the event was scheduled
    NodeId parent;    // scheduling event's node; kNull for setup roots
    std::uint32_t k;  // index among the parent's schedulings
    std::uint32_t pad_;
  };

  // Shared parent of every node rebase() rewrites; never a readable node.
  static constexpr NodeId kRebased = kNull - 1;

  static constexpr std::size_t kChunkShift = 16;  // 64Ki nodes (1.5 MiB)
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr unsigned kDomainShift = 48;  // id = domain:16 | index:48

  struct Arena {
    std::unique_ptr<std::atomic<Node*>[]> chunks;  // null until allocated
    std::size_t count = 0;                         // owner thread only
    std::size_t allocated = 0;  // chunks [0, allocated) are non-null
  };

  // A live id, its node as the old arena held it, and its rebased id.
  struct Live {
    NodeId id;
    Node n;
    NodeId fresh;
  };

  [[noreturn]] static void exhausted(int domain, std::size_t count) {
    std::fprintf(stderr,
                 "DetLineage: lineage arena exhausted (domain %d holds %zu "
                 "nodes, limit %zu)\n",
                 domain, count, kMaxChunks * kChunkSize);
    std::abort();
  }

  const Node& node(NodeId id) const {
    const std::size_t d = static_cast<std::size_t>(id >> kDomainShift);
    const std::size_t i =
        static_cast<std::size_t>(id & ((NodeId{1} << kDomainShift) - 1));
    const Node* chunk =
        arenas_[d].chunks[i >> kChunkShift].load(std::memory_order_acquire);
    return chunk[i & (kChunkSize - 1)];
  }

  std::vector<Arena> arenas_;
  std::size_t peak_nodes_ = 0;
  std::uint64_t rebases_ = 0;
  std::vector<Live> live_;              // rebase scratch, kept for capacity
  std::vector<std::uint32_t> ranked_;   // ditto
};

}  // namespace pase::sim
