// Conservative barrier-synchronous parallel execution of one simulation.
//
// The network is partitioned into domains, one Simulator (and one worker
// thread) each. Every cross-domain interaction is a Link delivery whose
// propagation delay is at least the partition lookahead L, so the classic
// conservative-PDES window applies: with m = min over domains of the next
// pending event time, every event in [m, H) can run without hearing from any
// other domain, for any horizon H that no cross-domain delivery can undercut.
// The engine runs three kinds of barrier-separated rounds:
//
//   drain   — every domain empties its incoming mailboxes into its calendar
//             (after which the union of calendars is the complete global
//             pending set) and publishes {next event time, safe bound};
//             the barrier leader picks H = min bound.
//   window  — every domain runs up to (exclusive) H, posting cross-domain
//             deliveries into mailboxes. If nobody posted, the published
//             values are still complete — the leader picks the next H at the
//             same barrier and the drain round is skipped entirely (one
//             barrier per quiet round instead of two).
//   finish  — H passed the caller's target: every domain runs inclusively to
//             the target and sets its clock there, exactly the semantics of
//             Simulator::run(target), so the chunked scenario driver behaves
//             identically to its one-domain form.
//
// The safe bound defaults to next_t + L (the static min-cut window). A
// caller-installed horizon probe can widen it per domain per round to
// next_t + D, where D is a certified lower bound on the delay before *this
// round's actual pending work* can reach a cut link (conditional lookahead):
// when the only pending events sit several store-and-forward hops from the
// nearest cut, D spans those hops and one round swallows what the static
// window would have split into many.
//
// Determinism: no decision depends on thread scheduling. The horizon is
// computed by whichever thread arrives last from published per-domain
// bounds; mailbox records carry DetLineage nodes interned in the source
// domain, so injected deliveries sort against local events exactly where the
// sequential FIFO order would place them (see det_lineage.h). All mailbox
// access is separated by barriers: producers append only during run phases,
// consumers drain only between them. The probe influences only *when* events
// run, never their order, so traces stay bit-identical across worker counts
// and probe choices.
//
// One domain is the sequential case of the same engine, not a separate
// driver: it runs without det mode (same-instant ties fall back to the
// simulator's FIFO sequence, which is the order lineage replays), posts
// nothing, needs no lookahead and starts no thread — run_until is a plain
// Simulator::run on the caller's thread after the one-time thread init.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace pase::sim {

class ParallelEngine {
 public:
  // Creates `domains` Simulators, in det mode when there is more than one.
  // Worker threads (one per domain beyond the caller's, which executes
  // domain 0) start lazily on the first run_until.
  explicit ParallelEngine(int domains);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int num_domains() const { return static_cast<int>(sims_.size()); }
  Simulator& domain(int d) { return *sims_[static_cast<std::size_t>(d)]; }
  // The shared lineage arena (every domain of a multi-domain engine runs in
  // det mode); exposed so callers can order out-of-band records (e.g.
  // deferred completion callbacks) exactly as the sequential run would have
  // fired them. Empty at one domain, whose single calendar already executes
  // in that order.
  DetLineage& lineage() { return lineage_; }

  // Minimum propagation delay over all cut links; must be positive and set
  // before the first run_until of a multi-domain engine.
  void set_lookahead(Time lookahead) { lookahead_ = lookahead; }
  Time lookahead() const { return lookahead_; }

  // Conditional-lookahead hook. Called on domain d's own thread while every
  // mailbox is empty (drain rounds and quiet windows); returns an absolute
  // bound B >= next_t + lookahead() such that no event chain starting from
  // d's pending work can deliver into another domain before B. Unset: the
  // engine uses the static bound next_t + lookahead(). Never called with
  // next_t == infinity.
  using HorizonProbe = std::function<Time(int domain, Time next_t)>;
  void set_horizon_probe(HorizonProbe probe) { probe_ = std::move(probe); }

  // Runs once on each worker thread before its first round (and once on the
  // caller's thread for domain 0): thread-local warmup such as packet-pool
  // prewarming.
  void set_thread_init(std::function<void(int domain)> fn) {
    thread_init_ = std::move(fn);
  }

  // Posts a cross-domain event: fires at `deliver_t` in `dst`, ordered by a
  // lineage node captured from `src`'s executing event right now. Must be
  // called from the thread running domain `src`, during a run phase.
  void post(int src, int dst, Time deliver_t, RawFn fn, void* ctx, void* arg);

  // Advances every domain clock to exactly `target` (monotonically
  // increasing across calls), executing all events at times <= target.
  void run_until(Time target);

  // Clock reached by run_until so far (all domains agree at return).
  Time now() const { return now_; }

  // Sum of pending events across domains plus undelivered mailbox records;
  // only meaningful between run_until calls.
  std::size_t pending_events() const;

  // --- Self-profiling (read between run_until calls) ----------------------
  // Horizon decisions made so far (each picks one window or ends the chunk).
  std::uint64_t rounds_executed() const { return rounds_; }
  // run_until windows completed.
  std::uint64_t windows_executed() const { return windows_; }
  // Cross-domain mailbox records posted (mailbox traffic).
  std::uint64_t cross_posts() const {
    return cross_posts_.load(std::memory_order_relaxed);
  }
  // Mailbox drain rounds executed (every one is a full barrier crossing; the
  // gap to rounds_executed() is rounds that skipped the drain).
  std::uint64_t drains_executed() const { return drains_; }
  // Windows after which no domain had posted: their drain was elided.
  std::uint64_t quiet_rounds() const { return quiet_rounds_; }
  // Mean width (seconds) of the windows run so far; the static engine pins
  // this at exactly lookahead() plus scheduling slack, the conditional probe
  // widens it.
  double mean_horizon_width() const {
    return window_rounds_ == 0
               ? 0.0
               : horizon_width_sum_ / static_cast<double>(window_rounds_);
  }
  // Total wall-clock seconds threads spent blocked in round barriers after
  // the bounded spin phase (summed over domains; load-imbalance signal).
  double barrier_wait_sec() const {
    double s = 0.0;
    for (const DomainPub& p : pub_) s += p.barrier_wait;
    return s;
  }
  // Total wall-clock seconds threads spent in the spin phase of round
  // barriers (summed over domains). With barrier_wait_sec() this is the
  // whole time non-leaders spent waiting for a round to end.
  double barrier_spin_sec() const {
    double s = 0.0;
    for (const DomainPub& p : pub_) s += p.barrier_spin;
    return s;
  }

  // Rebases the shared lineage arena onto the node ids that can still be
  // read — every linked calendar slot, every mailbox record and each
  // domain's executing-event node — and drops the rest (DetLineage::rebase),
  // so lineage memory is bounded by the nodes interned between two calls
  // instead of by run length. Call only between run_until calls, when no
  // node id is held anywhere else: deferred records that carry node ids must
  // be consumed first, and a run that stamps node ids into trace records
  // must not call it at all. A no-op at one domain (no lineage).
  void compact_lineage();

 private:
  struct CrossRecord {
    Time t;
    DetLineage::NodeId node;
    RawFn fn;
    void* ctx;
    void* arg;
  };

  // Per-domain slots published between barriers, padded so neighbouring
  // domains never share a cache line.
  struct alignas(64) DomainPub {
    Time next_t = kTimeInfinity;  // next pending event time
    Time bound = kTimeInfinity;   // earliest possible cross-domain delivery
    double barrier_wait = 0.0;    // accumulated post-spin barrier wait (sec)
    double barrier_spin = 0.0;    // accumulated barrier spin phase (sec)
  };

  // Sense-reversing barrier; the last arriver runs `leader_fn` before
  // releasing the others, which gives every shared decision a happens-before
  // edge to every waiter (acq_rel RMW chain into the release store).
  // Waiters spin (with a CPU pause) for a bounded burst — round trips are
  // usually shorter than a context switch — then fall back to yielding.
  // Returns the wall-clock seconds spent in each phase (both 0 for the
  // leader; yield 0 when the release arrived during the spin burst).
  struct Wait {
    double spin = 0.0;
    double yield = 0.0;
    Wait& operator+=(const Wait& o) {
      spin += o.spin;
      yield += o.yield;
      return *this;
    }
  };
  class Barrier {
   public:
    explicit Barrier(int n) : n_(n) {}

    template <typename Fn>
    Wait arrive_and_wait(Fn&& leader_fn) {
      const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
      if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        leader_fn();
        arrived_.store(0, std::memory_order_relaxed);
        epoch_.store(e + 1, std::memory_order_release);
        return {};
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kSpinIters; ++i) {
        if (epoch_.load(std::memory_order_acquire) != e) {
          return {seconds(t0, std::chrono::steady_clock::now()), 0.0};
        }
        cpu_pause();
      }
      const auto t1 = std::chrono::steady_clock::now();
      while (epoch_.load(std::memory_order_acquire) == e) {
        std::this_thread::yield();
      }
      return {seconds(t0, t1), seconds(t1, std::chrono::steady_clock::now())};
    }

   private:
    static constexpr int kSpinIters = 4096;
    static double seconds(std::chrono::steady_clock::time_point a,
                          std::chrono::steady_clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    }
    static void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }

    const int n_;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint64_t> epoch_{0};
  };

  std::vector<CrossRecord>& mailbox(int src, int dst) {
    return mail_[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(num_domains()) +
                 static_cast<std::size_t>(dst)];
  }

  void start_threads();
  void worker_main(int d);
  void run_rounds(int d);
  void drain_inbox(int d);
  void publish(int d, Simulator& sd);
  void decide();  // barrier-leader only

  DetLineage lineage_;  // before sims_: domains intern nodes into it
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::vector<CrossRecord>> mail_;  // [src * W + dst]
  std::vector<DomainPub> pub_;                  // published per round
  HorizonProbe probe_;
  Time lookahead_ = 0.0;
  Time now_ = 0.0;

  // Command state, written by the caller before the start barrier.
  Time target_ = 0.0;
  bool exit_ = false;
  // Round decision, written by the barrier leader (or the caller, who forces
  // a drain at the top of each run_until to pick up finish-phase leftovers).
  enum class Round { kDrain, kWindow, kFinish } round_ = Round::kDrain;
  Time horizon_ = 0.0;

  // Self-profiling. The plain counters are written only by the round-barrier
  // leader (serialized by the barrier itself); cross_posts_ is bumped
  // concurrently from run phases, hence atomic (relaxed: it is a statistic,
  // ordered for readers by the barriers that end each window).
  std::uint64_t rounds_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t quiet_rounds_ = 0;
  std::uint64_t window_rounds_ = 0;
  double horizon_width_sum_ = 0.0;
  std::uint64_t posts_at_decide_ = 0;
  std::atomic<std::uint64_t> cross_posts_{0};

  Barrier start_barrier_;
  Barrier round_barrier_;
  std::vector<std::thread> threads_;
  bool threads_started_ = false;
  std::function<void(int)> thread_init_;
  std::vector<DetLineage::NodeId*> live_nodes_;  // compact_lineage scratch
};

}  // namespace pase::sim
