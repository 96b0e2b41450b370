#ifndef RIPPLE_RIPPLE_RETRANSMIT_H_
#define RIPPLE_RIPPLE_RETRANSMIT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/fault.h"

namespace ripple {

/// The retry discipline's capped exponential backoff.
inline double BackedOffTimeout(double current, const net::RetryOptions& r) {
  return std::min(current * r.backoff, r.timeout_cap);
}

/// Sender-side reliability for one class of messages, shared by the
/// simulator and the live daemon with the clock as a parameter: `Timers`
/// is the simulator's TimerWheel or the daemon's net::WallTimers (both
/// offer Arm(delay, fn) -> handle and Cancel(handle)).
///
/// A message is registered once, under its id, with the encoded frame of
/// its first attempt; every (re)transmission reships that byte snapshot,
/// so copies are byte-identical and receivers can dedup by id. Each
/// transmission arms a timer with the current patience. When it fires,
/// Strike either spends one retry (backing the patience off) or reports
/// the budget spent; a progress ack (Ack) restores the budget. Entries are
/// erased when they resolve — response consumed, delivery confirmed or
/// budget spent — so the table holds exactly the messages in flight and a
/// missing id reads as resolved. `Meta` is the driver's own bookkeeping
/// (who waits for the reply, what each attempt charges).
template <typename Timers, typename Meta>
class Retransmitter {
 public:
  struct Entry {
    Meta meta{};
    std::vector<uint8_t> frame;  // encoded first attempt (byte snapshot)
    int attempt = 0;             // transmissions so far
    int strikes = 0;             // consecutive timeouts without reply/ack
    double timeout = 0;          // current (backed-off) patience
    uint64_t timer = 0;          // handle of the live transmission timer
  };

  /// The timers must outlive the retransmitter.
  Retransmitter(Timers* timers, const net::RetryOptions& retry)
      : timers_(timers), retry_(retry) {}

  Entry& Add(uint64_t id, Meta meta, std::vector<uint8_t> frame) {
    auto [it, inserted] = pending_.try_emplace(id);
    RIPPLE_CHECK(inserted && "message id reused while in flight");
    Entry& e = it->second;
    e.meta = std::move(meta);
    e.frame = std::move(frame);
    e.timeout = retry_.timeout;
    return e;
  }

  /// The in-flight entry for `id`, or nullptr once it resolved.
  Entry* Find(uint64_t id) {
    auto it = pending_.find(id);
    return it == pending_.end() ? nullptr : &it->second;
  }

  /// Counts one transmission and returns the copy to hand the transport.
  std::vector<uint8_t> NextCopy(Entry& e) {
    e.attempt += 1;
    return e.frame;
  }

  /// Arms the transmission timer of `id`: `on_timeout` runs after the
  /// current patience unless the entry resolves first. No-op for an entry
  /// that already resolved (a re-entrant delivery inside Send can do it).
  void Arm(uint64_t id, std::function<void()> on_timeout) {
    if (Entry* e = Find(id)) {
      e->timer = timers_->Arm(e->timeout, std::move(on_timeout));
    }
  }

  /// A timer fired with no reply. Returns false when the retry budget is
  /// spent (the caller gives up and resolves); otherwise counts the strike
  /// and backs the patience off for the retransmission.
  bool Strike(Entry& e) {
    if (e.strikes >= retry_.max_retries) return false;
    e.strikes += 1;
    e.timeout = BackedOffTimeout(e.timeout, retry_);
    return true;
  }

  /// A progress ack: the callee is alive and working.
  void Ack(Entry& e) { e.strikes = 0; }

  /// Cancels the live timer and forgets `id` (no-op when already gone).
  void Resolve(uint64_t id) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    timers_->Cancel(it->second.timer);
    pending_.erase(it);
  }

  /// Messages still in flight.
  size_t size() const { return pending_.size(); }

 private:
  Timers* timers_;
  net::RetryOptions retry_;
  std::unordered_map<uint64_t, Entry> pending_;
};

}  // namespace ripple

#endif  // RIPPLE_RIPPLE_RETRANSMIT_H_
