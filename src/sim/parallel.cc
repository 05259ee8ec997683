#include "sim/parallel.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/dcheck.h"

namespace pase::sim {

ParallelEngine::ParallelEngine(int domains)
    : lineage_(domains > 1 ? domains : 0),
      start_barrier_(domains),
      round_barrier_(domains) {
  PASE_DCHECK(domains >= 1);
  sims_.reserve(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d) {
    sims_.push_back(std::make_unique<Simulator>());
    if (domains > 1) {
      sims_.back()->enable_det(static_cast<std::uint32_t>(d), &lineage_);
    }
  }
  mail_.resize(static_cast<std::size_t>(domains) *
               static_cast<std::size_t>(domains));
  for (auto& box : mail_) box.reserve(256);
  pub_.resize(static_cast<std::size_t>(domains));
}

ParallelEngine::~ParallelEngine() {
  if (threads_started_) {
    exit_ = true;
    start_barrier_.arrive_and_wait([] {});
    for (auto& t : threads_) t.join();
  }
  // A run can end with deliveries still in a mailbox: free their payloads
  // as the destination calendar frees those of its own pending events.
  for (int s = 0; s < num_domains(); ++s) {
    for (int d = 0; d < num_domains(); ++d) {
      for (const CrossRecord& r : mailbox(s, d)) {
        domain(d).free_payload(r.fn, r.arg);
      }
      mailbox(s, d).clear();
    }
  }
}

void ParallelEngine::post(int src, int dst, Time deliver_t, RawFn fn,
                          void* ctx, void* arg) {
  mailbox(src, dst).push_back(
      CrossRecord{deliver_t, domain(src).make_post_node(), fn, ctx, arg});
  cross_posts_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ParallelEngine::pending_events() const {
  std::size_t n = 0;
  for (const auto& s : sims_) n += s->pending_events();
  for (const auto& box : mail_) n += box.size();
  return n;
}

void ParallelEngine::start_threads() {
  threads_started_ = true;
  threads_.reserve(sims_.size() - 1);
  for (int d = 1; d < num_domains(); ++d) {
    threads_.emplace_back([this, d] { worker_main(d); });
  }
  if (thread_init_) thread_init_(0);
}

void ParallelEngine::worker_main(int d) {
  if (thread_init_) thread_init_(d);
  for (;;) {
    start_barrier_.arrive_and_wait([] {});
    if (exit_) return;
    run_rounds(d);
  }
}

void ParallelEngine::drain_inbox(int d) {
  Simulator& sd = domain(d);
  for (int s = 0; s < num_domains(); ++s) {
    if (s == d) continue;
    auto& box = mailbox(s, d);
    for (const CrossRecord& r : box) {
      // A sound horizon keeps every delivery strictly ahead of the
      // destination: the poster's published bound capped this domain's last
      // window. Equality would already be an ordering hazard — this domain
      // may have executed same-instant events that sort after the record.
      PASE_DCHECK(r.t > sd.now() && "cross delivery behind the horizon");
      sd.schedule_injected(r.t, r.node, r.fn, r.ctx, r.arg);
    }
    box.clear();
  }
}

void ParallelEngine::publish(int d, Simulator& sd) {
  DomainPub& pub = pub_[static_cast<std::size_t>(d)];
  const Time nt = sd.next_event_time();
  pub.next_t = nt;
  if (nt == kTimeInfinity) {
    pub.bound = kTimeInfinity;
  } else if (probe_) {
    pub.bound = probe_(d, nt);
    PASE_DCHECK(pub.bound >= nt + lookahead_ &&
                "horizon probe returned less than the static bound");
  } else {
    pub.bound = nt + lookahead_;
  }
}

void ParallelEngine::decide() {
  // Leader-only, inside a barrier: every domain published its slot (and any
  // cross posts it made) before arriving, and the acq_rel arrival chain
  // makes those writes visible here.
  ++rounds_;
  Time m = kTimeInfinity;
  Time h = kTimeInfinity;
  for (const DomainPub& p : pub_) {
    m = std::min(m, p.next_t);
    h = std::min(h, p.bound);
  }
  if (h > target_) {
    // Every remaining event <= target is safe: any delivery it generates
    // lands at >= its domain's bound >= h > target, i.e. in a later chunk.
    round_ = Round::kFinish;
  } else {
    round_ = Round::kWindow;
    horizon_ = h;
    horizon_width_sum_ += h - m;
    ++window_rounds_;
  }
  posts_at_decide_ = cross_posts_.load(std::memory_order_relaxed);
}

void ParallelEngine::run_rounds(int d) {
  Simulator& sd = domain(d);
  DomainPub& pub = pub_[static_cast<std::size_t>(d)];
  Wait waited;
  for (;;) {
    switch (round_) {
      case Round::kDrain:
        // Mailboxes were last written during a run phase sealed by the
        // barrier that ended it; after this drain the union of all calendars
        // is the complete global pending set, so the published minima are
        // exact and the probe sees empty mailboxes.
        drain_inbox(d);
        publish(d, sd);
        waited += round_barrier_.arrive_and_wait([this] {
          ++drains_;
          decide();
        });
        break;

      case Round::kWindow:
        sd.run_before(horizon_);
        publish(d, sd);
        waited += round_barrier_.arrive_and_wait([this] {
          if (cross_posts_.load(std::memory_order_relaxed) ==
              posts_at_decide_) {
            // Quiet window: nobody posted, so the mailboxes are still empty
            // and the values just published are complete — decide the next
            // horizon right here and skip the drain round entirely.
            ++quiet_rounds_;
            decide();
          } else {
            // Published minima exclude the mailbox contents; discard them
            // and drain first.
            round_ = Round::kDrain;
          }
        });
        break;

      case Round::kFinish:
        sd.run(target_);  // inclusive; also advances the clock to target
        waited += round_barrier_.arrive_and_wait([] {});
        pub.barrier_wait += waited.yield;
        pub.barrier_spin += waited.spin;
        // Seals the barrier_wait/spin writes: the caller reads them only after
        // domain 0 passes this barrier.
        round_barrier_.arrive_and_wait([] {});
        return;
    }
  }
}

void ParallelEngine::compact_lineage() {
  if (num_domains() == 1) return;
  live_nodes_.clear();
  for (const auto& s : sims_) s->collect_det_nodes(live_nodes_);
  for (auto& box : mail_) {
    for (CrossRecord& r : box) live_nodes_.push_back(&r.node);
  }
  lineage_.rebase(live_nodes_);
}

void ParallelEngine::run_until(Time target) {
  if (!threads_started_) start_threads();
  if (num_domains() == 1) {
    // Single domain: plain sequential execution, no rounds.
    domain(0).run(target);
    now_ = target;
    return;
  }
  PASE_DCHECK(lookahead_ > 0.0 && "parallel run requires positive lookahead");
  const std::uint64_t rounds_before = rounds_;
  const std::uint64_t posts_before = cross_posts();
  const std::uint64_t drains_before = drains_;
  const std::uint64_t wrounds_before = window_rounds_;
  const double width_before = horizon_width_sum_;
  target_ = target;
  // The finish phase of the previous chunk may have posted deliveries that
  // land in this chunk; always open with a drain.
  round_ = Round::kDrain;
  start_barrier_.arrive_and_wait([] {});
  run_rounds(0);
  now_ = target;
  ++windows_;
  if (obs::TraceBuffer* tb = obs::tracer(); tb != nullptr) [[unlikely]] {
    // Engine self-profiling is inherently worker-count dependent; it lives
    // in its own category so determinism tests can filter it out.
    const std::uint64_t dw = window_rounds_ - wrounds_before;
    const double mean_width =
        dw == 0 ? 0.0 : (horizon_width_sum_ - width_before) /
                            static_cast<double>(dw);
    tb->emit_at(target, obs::kEngineCat, obs::EventType::kParallelRound, 0,
                mean_width, static_cast<double>(drains_ - drains_before),
                static_cast<std::uint32_t>(rounds_ - rounds_before),
                static_cast<std::uint32_t>(cross_posts() - posts_before));
  }
}

}  // namespace pase::sim
