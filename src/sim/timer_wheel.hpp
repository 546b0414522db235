// Hierarchical timer wheel (Varghese & Lauck, SOSP '87): O(1)
// arm/cancel/rearm for both heartbeat engines.
//
// Heartbeat engines cancel and rearm a deadline on *every* message
// delivery, so a comparison heap of pending events spends its time
// churning. This wheel stores plain payload records in pooled,
// index-linked slot lists (no per-event allocation after warm-up)
// bucketed by expiry tick across kLevels levels of 64 slots each:
// level k spans 64^(k+1) ticks, so any deadline within ~6.9e10 ticks
// of now is an O(1) list insert, and cancellation unlinks in O(1) via
// a generation-checked handle. Deadlines beyond that span (a clock
// fault can push one towards kNever/4) wait in a small far-future
// min-heap by expiry tick and are filed into the wheel, with the arm
// sequence they were given, once they come within range.
//
// Determinism contract: entries due at the same tick fire ordered by
// (priority, arm-sequence) — deliveries at priority 0 outrun timers at
// priority 1, ties fall back to FIFO arm order. sim::Simulator (under
// hb::Cluster) and hb::ScaleCluster both schedule on this wheel, which
// is what keeps their event interleavings bit-for-bit identical; the
// property test in tests/sim_timer_wheel_test.cpp pins the order
// against a sorted-set oracle.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/contracts.hpp"

namespace ahb::sim {

template <typename Payload>
class TimerWheel {
 public:
  using Time = std::int64_t;

  /// Generation-checked reference to a pending entry. Default-constructed
  /// handles are invalid; cancel() of an invalid/expired handle is a
  /// no-op.
  struct Handle {
    std::uint32_t index = kNullIndex;
    std::uint32_t generation = 0;
    bool valid() const { return index != kNullIndex; }
  };

  /// One expired entry, in (when, priority, seq) firing order.
  struct Expired {
    Time when = 0;
    int priority = 0;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  explicit TimerWheel(Time start = 0) : now_(start) {
    for (auto& level : heads_) level.fill_null();
  }

  Time now() const { return now_; }
  std::size_t pending() const { return pending_; }

  /// Arms an entry at absolute tick `when` (>= now()). Priority is 0
  /// (deliveries) or 1 (timers) — the two lanes the receive-priority
  /// tiebreak needs. O(1) within the wheel span of 64^kLevels ticks;
  /// later deadlines cost O(log f) in the f-entry far-future heap.
  Handle arm(Time when, int priority, const Payload& payload) {
    AHB_EXPECTS(when >= now_);
    AHB_EXPECTS(priority == 0 || priority == 1);
    const std::uint32_t idx = alloc();
    Node& node = pool_[idx];
    node.when = when;
    node.priority = priority;
    node.seq = next_seq_++;
    node.payload = payload;
    node.live = true;
    ++pending_;
    if (when - now_ >= kSpanTicks) [[unlikely]] {
      push_far(idx);
    } else {
      place(idx);
    }
    return Handle{idx, node.generation};
  }

  /// Cancels a pending entry; returns true if it was still pending,
  /// and then copies its payload to `*cancelled` when given. O(1):
  /// wheel-resident entries unlink immediately, entries staged in the
  /// current-tick ready lanes or waiting in the far-future heap are
  /// discarded lazily.
  bool cancel(Handle h, Payload* cancelled = nullptr) {
    if (!h.valid() || h.index >= pool_.size()) return false;
    Node& node = pool_[h.index];
    if (node.generation != h.generation || !node.live) return false;
    if (cancelled != nullptr) *cancelled = node.payload;
    node.live = false;
    --pending_;
    if (node.location == Location::Wheel) {
      unlink(h.index);
      free_node(h.index);
    } else if (node.location == Location::Far) {
      ++far_dead_;
      if (far_dead_ > kFarSlack && far_dead_ * 2 > far_.size()) compact_far();
    }
    // Location::Ready: the ready lane drops it when popped.
    return true;
  }

  /// Pops the next live entry with when <= horizon, advancing now() to
  /// its tick. Entries fire in exact (when, priority, seq) order.
  bool pop(Time horizon, Expired& out) {
    while (true) {
      while (!ready_empty()) {
        const std::uint32_t idx = pop_ready();
        Node& node = pool_[idx];
        if (!node.live) {
          free_node(idx);
          continue;
        }
        out.when = node.when;
        out.priority = node.priority;
        out.seq = node.seq;
        out.payload = node.payload;
        node.live = false;
        --pending_;
        free_node(idx);
        return true;
      }
      if (pending_ == 0) return false;
      const Time next = next_event_tick();
      if (next > horizon) return false;
      advance_to_tick(next);
    }
  }

  /// Moves now() forward to `t` (>= now()) without firing anything.
  /// Only legal when no pending entry is due at or before `t`; used for
  /// run_until(horizon) semantics after the queue drains. Walks the
  /// cascade boundaries up to `t` (so entries re-file exactly as pop()
  /// would have re-filed them) and then jumps: once no boundary with
  /// work remains at or before `t`, every pending entry provably sits
  /// in a slot whose scan candidate stays ahead of `t`.
  void advance_to(Time t) {
    if (t <= now_) return;
    AHB_EXPECTS(ready_empty());
    while (pending_ != 0) {
      const Time next = next_event_tick();
      if (next > t) break;
      advance_to_tick(next);
      AHB_EXPECTS(ready_empty());  // an entry was due at or before t
    }
    now_ = t;
  }

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffffu;
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 64;
  static constexpr int kLevels = 6;
  /// Total tick span the wheel can hold: 64^kLevels.
  static constexpr Time kSpanTicks = Time{1} << (kLevelBits * kLevels);
  /// Cancelled far-future entries tolerated before the heap is rebuilt
  /// without them (rebuilt once they also make up half of it).
  static constexpr std::size_t kFarSlack = 64;

  enum class Location : std::uint8_t { Free, Wheel, Ready, Far };

  struct Node {
    Time when = 0;
    int priority = 0;
    std::uint64_t seq = 0;
    Payload payload{};
    std::uint32_t generation = 0;
    std::uint32_t prev = kNullIndex;
    std::uint32_t next = kNullIndex;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
    Location location = Location::Free;
    bool live = false;
  };

  struct LevelHeads {
    std::uint32_t head[kSlots];
    void fill_null() {
      for (auto& h : head) h = kNullIndex;
    }
  };

  static constexpr Time level_span(int k) {
    return Time{1} << (kLevelBits * k);  // slot width of level k
  }

  std::uint32_t alloc() {
    if (!free_list_.empty()) {
      const std::uint32_t idx = free_list_.back();
      free_list_.pop_back();
      return idx;
    }
    pool_.push_back(Node{});
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void free_node(std::uint32_t idx) {
    Node& node = pool_[idx];
    ++node.generation;  // invalidates outstanding handles
    node.location = Location::Free;
    node.live = false;
    free_list_.push_back(idx);
  }

  /// Files a node by its delta from now: level k holds deltas in
  /// [64^k, 64^(k+1)), slot index is the node's absolute tick sliced at
  /// that level. Entries due exactly now go straight to the ready lanes.
  void place(std::uint32_t idx) {
    Node& node = pool_[idx];
    const Time delta = node.when - now_;
    if (delta == 0) {
      push_ready(idx);
      return;
    }
    int level = 0;
    while (delta >= level_span(level + 1)) ++level;
    const int slot =
        static_cast<int>((node.when >> (kLevelBits * level)) & (kSlots - 1));
    node.level = static_cast<std::uint8_t>(level);
    node.slot = static_cast<std::uint8_t>(slot);
    node.location = Location::Wheel;
    node.prev = kNullIndex;
    node.next = heads_[level].head[slot];
    if (node.next != kNullIndex) pool_[node.next].prev = idx;
    heads_[level].head[slot] = idx;
    occupied_[level] |= std::uint64_t{1} << slot;
  }

  void unlink(std::uint32_t idx) {
    Node& node = pool_[idx];
    if (node.prev != kNullIndex) {
      pool_[node.prev].next = node.next;
    } else {
      heads_[node.level].head[node.slot] = node.next;
    }
    if (node.next != kNullIndex) pool_[node.next].prev = node.prev;
    if (heads_[node.level].head[node.slot] == kNullIndex) {
      occupied_[node.level] &= ~(std::uint64_t{1} << node.slot);
    }
    node.prev = node.next = kNullIndex;
  }

  // Far-future stage: entries at least kSpanTicks ahead, as a min-heap
  // of (when, idx). Invariant between public calls: every entry in it
  // is still >= kSpanTicks ahead of now(), so next_event_tick() offers
  // the tick where the earliest one comes within range, and
  // advance_to_tick() files every entry that has. Only clock faults
  // arm this far ahead; the helpers are kept cold and out of line so
  // arm() and pop() inline as tightly as they do without the stage (a
  // same-process A/B of the ScaleCluster deadline pattern measured the
  // inlined form ~5 % slower per operation).
  struct FarEntry {
    Time when;
    std::uint32_t idx;
    bool operator>(const FarEntry& other) const { return when > other.when; }
  };

  [[gnu::noinline, gnu::cold]] void push_far(std::uint32_t idx) {
    pool_[idx].location = Location::Far;
    far_.push_back({pool_[idx].when, idx});
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
  }

  [[gnu::noinline, gnu::cold]] void file_far() {
    while (!far_.empty() && far_.front().when - now_ < kSpanTicks) {
      std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
      const std::uint32_t idx = far_.back().idx;
      far_.pop_back();
      if (pool_[idx].live) {
        place(idx);
      } else {
        --far_dead_;
        free_node(idx);
      }
    }
  }

  [[gnu::noinline, gnu::cold]] void compact_far() {
    std::erase_if(far_, [this](const FarEntry& entry) {
      if (pool_[entry.idx].live) return false;
      free_node(entry.idx);
      return true;
    });
    std::make_heap(far_.begin(), far_.end(), std::greater<>{});
    far_dead_ = 0;
  }

  // Ready stage: entries due at the current tick, fired in
  // (priority, seq) order. Two FIFO lanes — one per priority — hold
  // (seq, idx) pairs with the sort key inline, so draining never
  // dereferences the pool for comparisons (at 100k nodes the pooled
  // records span megabytes and a comparison heap thrashes the cache).
  // A slot's entries are sorted once on collection; same-tick arms
  // during processing carry fresh monotone seqs, so appending keeps
  // each lane sorted for free.
  struct ReadyEntry {
    std::uint64_t seq;
    std::uint32_t idx;
  };

  bool ready_empty() const {
    return lane_head_[0] == lanes_[0].size() &&
           lane_head_[1] == lanes_[1].size();
  }

  void push_ready(std::uint32_t idx) {
    Node& node = pool_[idx];
    node.location = Location::Ready;
    lanes_[node.priority].push_back({node.seq, idx});
  }

  std::uint32_t pop_ready() {
    // Lane 0 always outranks lane 1 at the same tick; a lane-0 arm that
    // lands while lane 1 is draining simply fires next, as the
    // (when, priority, seq) order requires.
    const int lane = lane_head_[0] < lanes_[0].size() ? 0 : 1;
    const std::uint32_t idx = lanes_[lane][lane_head_[lane]++].idx;
    if (ready_empty()) {
      lanes_[0].clear();
      lanes_[1].clear();
      lane_head_[0] = lane_head_[1] = 0;
    }
    return idx;
  }

  /// The next tick that needs attention: per level, the start of the
  /// first occupied slot still ahead in the current window, or — since
  /// the slot ring recycles — the start of the first occupied slot in
  /// the *next* window when only slots at or behind the current index
  /// hold work (an entry with delta just under the level's span wraps
  /// to a slot index <= the current one, including the current slot
  /// itself). Returned ticks are cascade boundaries, not necessarily
  /// due entries: advancing there either stages level-0 work or
  /// re-files a coarser slot, and the scan repeats. The far-future heap
  /// offers the tick where its earliest entry comes within the span.
  Time next_event_tick() const {
    Time best = far_.empty() ? -1 : far_.front().when - (kSpanTicks - 1);
    for (int k = 0; k < kLevels; ++k) {
      if (occupied_[k] == 0) continue;
      const int cur =
          static_cast<int>((now_ >> (kLevelBits * k)) & (kSlots - 1));
      const Time window = now_ & ~(level_span(k + 1) - 1);
      const std::uint64_t ahead =
          cur == kSlots - 1
              ? 0
              : occupied_[k] & (~std::uint64_t{0} << (cur + 1));
      Time cand;
      if (ahead != 0) {
        cand = window +
               static_cast<Time>(std::countr_zero(ahead)) * level_span(k);
      } else {
        // All occupied slots are at or behind the current index: their
        // entries fire in the next cycle of this level's ring.
        cand = window + level_span(k + 1) +
               static_cast<Time>(std::countr_zero(occupied_[k])) *
                   level_span(k);
      }
      if (best < 0 || cand < best) best = cand;
    }
    AHB_EXPECTS(best >= 0 && "next_event_tick with nothing pending");
    return best;
  }

  void cascade(int level, int slot) {
    std::uint32_t idx = heads_[level].head[slot];
    heads_[level].head[slot] = kNullIndex;
    occupied_[level] &= ~(std::uint64_t{1} << slot);
    while (idx != kNullIndex) {
      const std::uint32_t next = pool_[idx].next;
      pool_[idx].prev = pool_[idx].next = kNullIndex;
      place(idx);  // delta is now < 64^level: re-files lower (or ready)
      idx = next;
    }
  }

  /// Jumps now() to tick `t`, files the far-future entries now within
  /// range, cascades every level whose slot boundary `t` starts
  /// (highest level first, so cascades can deposit into the lower-level
  /// slots cascaded right after) and stages the entries of the new
  /// level-0 slot into the ready lanes. Filed far entries are still
  /// ~kSpanTicks ahead, so they land on the top level, never ready.
  void advance_to_tick(Time t) {
    now_ = t;
    if (!far_.empty()) file_far();
    for (int k = kLevels - 1; k >= 1; --k) {
      if ((t & (level_span(k) - 1)) == 0) {
        cascade(k, static_cast<int>((t >> (kLevelBits * k)) & (kSlots - 1)));
      }
    }
    collect_current_slot();
  }

  void collect_current_slot() {
    const int slot = static_cast<int>(now_ & (kSlots - 1));
    std::uint32_t idx = heads_[0].head[slot];
    heads_[0].head[slot] = kNullIndex;
    occupied_[0] &= ~(std::uint64_t{1} << slot);
    while (idx != kNullIndex) {
      const std::uint32_t next = pool_[idx].next;
      pool_[idx].prev = pool_[idx].next = kNullIndex;
      AHB_EXPECTS(pool_[idx].when == now_);
      push_ready(idx);
      idx = next;
    }
    // Both lanes were empty before this tick (pop() drains fully before
    // advancing), so sorting the whole lane restores (priority, seq)
    // order in one contiguous pass.
    for (auto& lane : lanes_) {
      std::sort(lane.begin(), lane.end(),
                [](const ReadyEntry& a, const ReadyEntry& b) {
                  return a.seq < b.seq;
                });
    }
  }

  Time now_;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;
  std::vector<Node> pool_;
  std::vector<std::uint32_t> free_list_;
  std::vector<FarEntry> far_;
  std::size_t far_dead_ = 0;  ///< cancelled entries still in far_
  std::vector<ReadyEntry> lanes_[2];
  std::size_t lane_head_[2] = {0, 0};
  LevelHeads heads_[kLevels];
  std::uint64_t occupied_[kLevels] = {};
};

}  // namespace ahb::sim
