// Node timers (DESIGN §3.5): the seam every timer of a Primary, Worker,
// HotStuff and payload provider goes through, and the one table of retry
// delays. A crash-restart destroys a node with its timers queued; they still
// fire (Scheduler::event_hash folds every fired event), but as no-ops.
#ifndef SRC_SIM_TIMERS_H_
#define SRC_SIM_TIMERS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "src/sim/scheduler.h"

namespace nt {

// Capped exponential backoff: attempt k waits base << min(k, max_doublings).
struct Backoff {
  TimeDelta base = 0;
  uint32_t max_doublings = 0;

  constexpr TimeDelta Delay(uint32_t attempt) const {
    return base << std::min(attempt, max_doublings);
  }
  constexpr TimeDelta MaxDelay() const { return Delay(max_doublings); }  // Longest gap.
};

// ---- the retry table: stored messages are re-sent until "no more needed to
// make progress" (§6); the pull synchronizer asks one candidate at a time,
// since O(1) probes suffice on average (§4.1).

// Re-send an uncertified header to the validators that have not voted, then
// re-share its certificate, until the round advances (§6). Capped at 8x: this
// carries liveness through loss at exactly 2f+1 live validators, so its gap
// must stay well under any post-GST liveness bound.
inline constexpr Backoff kHeaderRetry{Millis(1000), 3};
// Ask the next signer of a certificate for its missing header (§4.1).
inline constexpr Backoff kHeaderSync{Millis(300), 6};
// Re-send an unacked batch to the workers that have not acked it. The backoff
// adapts to asynchrony and crashes instead of flooding (TCP-like, §4.1).
inline constexpr Backoff kBatchResend{Millis(500), 6};
// Ask the next worker for a batch a header references (§4.1, §4.2).
inline constexpr Backoff kBatchFetch{Millis(300), 6};
// HotStuff's view timer: it doubles per timeout within one view and resets
// when the view advances (LibraBFT-style pacemaker, §6).
inline constexpr Backoff kViewTimeout{Seconds(1), 3};
// Re-broadcast the leader's proposal within its view (§6). Without it one lost
// message wastes the view, and at 2f+1 live validators under loss the three
// clean views a commit needs almost never line up.
inline constexpr Backoff kProposalRetry{Millis(300), 3};
// Ask the next validator for a missing HotStuff ancestor block.
inline constexpr Backoff kBlockFetch{Millis(300), 0};

inline constexpr std::pair<std::string_view, Backoff> kRetryTable[] = {
    {"header re-broadcast", kHeaderRetry}, {"header sync", kHeaderSync},
    {"batch re-send", kBatchResend},       {"batch fetch", kBatchFetch},
    {"view timeout", kViewTimeout},        {"proposal", kProposalRetry},
    {"block fetch", kBlockFetch},
};

class Timers {
 public:
  explicit Timers(Scheduler* scheduler) : scheduler_(scheduler) {}
  Timers(const Timers&) = delete;
  Timers& operator=(const Timers&) = delete;
  ~Timers() { *alive_ = false; }

  // Runs `fn` after `delay` unless this Timers is gone by then.
  template <typename F>
  Scheduler::TimerId ScheduleAfter(TimeDelta delay, F&& fn) {
    return scheduler_->ScheduleAfter(delay, [alive = alive_, fn = std::forward<F>(fn)]() mutable {
      if (*alive) {
        fn();
      }
    });
  }

  // Runs `step(attempt)` after backoff.Delay(attempt), then step(attempt + 1)
  // after the next delay, while the step returns true. Returns the pending
  // timer's id; each re-arm's new id is written to `pending` if set, so the
  // owner can Cancel() the retry (and must, before `*pending` dies).
  template <typename F>
  Scheduler::TimerId ScheduleRetry(Backoff backoff, uint32_t attempt, F step,
                                   Scheduler::TimerId* pending = nullptr) {
    return ScheduleAfter(backoff.Delay(attempt), [this, backoff, attempt, pending,
                                                  step = std::move(step)]() mutable {
      if (step(attempt)) {
        Scheduler::TimerId next = ScheduleRetry(backoff, attempt + 1, std::move(step), pending);
        if (pending != nullptr) {
          *pending = next;
        }
      }
    });
  }

  void Cancel(Scheduler::TimerId id) { scheduler_->Cancel(id); }

  TimePoint now() const { return scheduler_->now(); }

 private:
  Scheduler* scheduler_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);  // Read by every queued callback.
};

}  // namespace nt

#endif  // SRC_SIM_TIMERS_H_
