// Point-to-point unidirectional link: serialization at `rate_bps` followed by
// fixed propagation delay, delivering into the destination node.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/node.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"

namespace pase::sim {
class ParallelEngine;
}

namespace pase::net {

class Link {
 public:
  Link(sim::Simulator& sim, double rate_bps, sim::Time prop_delay,
       std::string name = {})
      : sim_(&sim), rate_bps_(rate_bps), delay_(prop_delay),
        name_(std::move(name)) {
    register_event_fns();
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void connect(Queue* source, Node* dst) {
    source_ = source;
    dst_ = dst;
    source->set_link(this);
  }

  bool idle() const { return !busy_; }
  double rate_bps() const { return rate_bps_; }
  sim::Time prop_delay() const { return delay_; }
  Node* destination() const { return dst_; }
  const std::string& name() const { return name_; }

  sim::Time serialization_delay(std::uint32_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / rate_bps_;
  }

  // Begins serializing `p`; must only be called when idle. The hop is two
  // raw typed events — tx-done at now + serialization, which schedules the
  // delivery a propagation delay later — so a packet hop costs two
  // one-cache-line event writes and no closure construction.
  void transmit(PacketPtr p);

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  // Utilization helper: busy time accumulated so far.
  sim::Time busy_time() const { return busy_time_; }

  // --- Parallel-partition wiring (setup time only) -----------------------
  // Moves the link's event scheduling onto the domain clock of its
  // transmitting node. Must be called before any packet is in flight.
  void bind_domain(sim::Simulator& s) {
    sim_ = &s;
    register_event_fns();
  }
  // Marks the link as a cut edge: deliveries are posted into the destination
  // domain's mailbox (ordered by a lineage node captured here) instead of being
  // scheduled on the local calendar.
  void set_cross_post(sim::ParallelEngine* engine, int src_domain,
                      int dst_domain) {
    cross_ = engine;
    cross_src_ = src_domain;
    cross_dst_ = dst_domain;
  }

  // --- Conditional-lookahead activity probes (parallel runs only) ---------
  // When armed, the link counts in-flight deliveries so the engine's horizon
  // probe can tell whether any event chain is currently headed down this
  // link. Sequential runs never arm and pay one predicted branch per hop.
  void arm_activity_tracking() { activity_armed_ = true; }
  // Local (intra-domain) link: a packet is serializing or propagating, so an
  // event will fire at the destination node. Read only by the owning
  // domain's thread.
  bool probe_local_active() const { return busy_ || inflight_ > 0; }
  // Cut link, source-side view: a packet is serializing; its delivery will
  // be posted at tx-done + prop_delay. Read only by the source domain.
  bool probe_cut_busy() const { return busy_; }
  // Cut link, destination-side view: a posted delivery has not executed yet
  // (it sits in the destination calendar once mailboxes are drained). The
  // relaxed read may miss an increment racing with the probe, but any such
  // increment came from a post in the same window, which forces the engine
  // to discard the probe and drain first — so staleness is conservative.
  bool probe_cut_inflight() const {
    return cross_inflight_.load(std::memory_order_relaxed) > 0;
  }

 private:
  // Typed-event trampolines (sim::RawFn signature).
  static void on_tx_done(void* self, void* arg);
  static void on_deliver(void* self, void* packet);

  // Registers the two event fns with the link's simulator; a rebound link
  // re-registers onto its domain clock, so every domain of a partitioned
  // run knows them.
  //
  // Engine prefetch helpers (see Simulator::set_prefetch_hint): one event
  // ahead of a delivery, pull the destination node's first line (its route
  // or demux state rides there); one event ahead of a tx-done, pull the
  // feeding queue's first line (the idle kick probes it). Pure prefetch —
  // no state is read beyond this link's own (already warm) fields.
  void register_event_fns() {
    sim_->set_prefetch_hint(&Link::on_tx_done, &Link::txdone_hint);
    sim_->set_prefetch_hint(&Link::on_deliver, &Link::deliver_hint);
    // Profiler labels, so every domain can attribute its dispatches.
    sim_->set_profile_label(&Link::on_tx_done, "link.tx_done");
    sim_->set_profile_label(&Link::on_deliver, "link.deliver");
    // Both events carry the released in-flight packet; one still pending
    // when its simulator is destroyed (a run that stops with packets on the
    // wire) hands it back to the pool.
    sim_->set_payload_deleter(&Link::on_tx_done, &Link::free_packet);
    sim_->set_payload_deleter(&Link::on_deliver, &Link::free_packet);
  }
  static void free_packet(void* packet) {
    PacketPool::local().release(static_cast<Packet*>(packet));
  }
  static void txdone_hint(void* self, void* arg);
  static void deliver_hint(void* self, void* arg);

  // Hot fields first (Link has no vtable, so these start at offset 0):
  // on_tx_done and on_deliver — the two per-hop events — read sim_, delay_,
  // both endpoints, cross_, the activity flags and busy_, all packed into
  // the first cache line. The stats accumulators, cut-link plumbing and
  // name trail on later lines; transmit touches them once per serialization.
  sim::Simulator* sim_;
  double rate_bps_;
  sim::Time delay_;
  Queue* source_ = nullptr;
  Node* dst_ = nullptr;
  sim::ParallelEngine* cross_ = nullptr;  // non-null on cut links only
  bool busy_ = false;
  // Activity tracking (see probe accessors above). `inflight_` is
  // single-threaded (local links live entirely inside one domain);
  // `cross_inflight_` is incremented by the source domain at post time and
  // decremented by the destination domain when the delivery executes.
  bool activity_armed_ = false;
  int inflight_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  sim::Time busy_time_ = 0.0;
  int cross_src_ = 0;
  int cross_dst_ = 0;
  std::atomic<int> cross_inflight_{0};
  std::string name_;
};

// Queue's link-facing methods live here so call sites inline them: the
// enqueue -> try_send -> transmit chain runs once per switch hop. do_dequeue
// returns null when the discipline is empty (its contract), so probing
// emptiness and dequeueing is a single virtual call.
inline void Queue::try_send() {
  if (link_ == nullptr || !link_->idle()) return;
  PacketPtr next = do_dequeue();
  if (next == nullptr) return;
  link_->transmit(std::move(next));
}

inline void Queue::enqueue(PacketPtr p) {
  ++enqueues_;
  // Idle link: hand the packet straight to the discipline's pass-through.
  // Every entry point kicks try_send, so an idle link implies a drained
  // queue and do_pass usually skips the ring round-trip entirely; when the
  // queue is somehow non-empty, do_pass returns the head packet — exactly
  // what enqueue-then-try_send would have transmitted.
  if (link_ != nullptr && link_->idle()) [[likely]] {
    if (PacketPtr next = do_pass(std::move(p))) {
      link_->transmit(std::move(next));
    }
    return;
  }
  if (do_enqueue(std::move(p))) try_send();
}

inline void Queue::on_link_idle() { try_send(); }

}  // namespace pase::net
