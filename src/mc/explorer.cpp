#include "mc/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>

#include "util/contracts.hpp"

namespace ahb::mc {

namespace {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return std::min(requested, 256u);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

bool lex_less(std::span<const ta::Slot> a, std::span<const ta::Slot> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Committed-chain fusion bound: a chain longer than this interns an
// intermediate canonical state, which both bounds the recursion and acts
// as the POR cycle proviso (a committed cycle re-enters the store and
// terminates through duplicate detection).
constexpr std::uint32_t kFusionDepthCap = 64;

// The sequential loop's store: a StateStore plus the BFS parent links a
// ConcurrentStateStore records itself, so both loops intern and walk
// parents through the same calls.
class LinkedStore : public StateStore {
 public:
  using StateStore::StateStore;

  std::pair<std::uint32_t, bool> intern(std::span<const ta::Slot> slots,
                                        std::uint32_t parent) {
    const auto interned = StateStore::intern(slots);
    if (interned.second) parents_.push_back(parent);
    return interned;
  }
  std::uint32_t parent_of(std::uint32_t index) const {
    return parents_[index];
  }

 private:
  std::vector<std::uint32_t> parents_;
};

}  // namespace

Explorer::Explorer(const ta::Network& net) : net_(&net) {
  AHB_EXPECTS(net.frozen());
}

// One search worker: successor scratches and buffers, the fused-
// transient worklist, the next-layer indices it discovered, its counters
// and its best target hit. The sequential loop runs one worker, the
// parallel loop one per thread; both hand every frontier state to
// expand(), so the loops differ only in frontier scheduling, store and
// hit policy.
class Explorer::Worker {
 public:
  enum class Halt { kNone, kLimit, kHit };

  Worker(const ta::Network& net, const StopFn& stop,
         const SearchLimits& limits, bool stop_at_hit)
      : canon(limits.symmetry == ta::Symmetry::Participants &&
              net.codec().has_canonicalization()),
        por(limits.por),
        net_(&net),
        stop_(&stop),
        max_states_(limits.max_states),
        stop_at_hit_(stop_at_hit) {}

  /// Interns the canonical image of the initial state; returns its
  /// index and whether the real initial state is a target.
  template <typename Store>
  std::pair<std::uint32_t, bool> seed(Store& store) {
    const ta::State init = net_->initial_state();
    test_buf_.assign(init.slots());
    if (canon) net_->codec().canonicalize(test_buf_.slots_mut());
    const auto [index, inserted] =
        store.intern(test_buf_.slots(), Store::kInvalidIndex);
    AHB_ASSERT(inserted);
    return {index, (*stop_)(init, stop_scratch_)};
  }

  /// Expands the stored state `index`: counts every successor, checks
  /// the state cap before interning, fuses through committed states
  /// (por), canonicalizes (canon), interns with `index` as parent and
  /// tests each new state. kHit only when hits stop the search; the
  /// parallel loop finishes the layer and keeps the smallest hit.
  template <typename Store>
  Halt expand(Store& store, std::uint32_t index) {
    // Frontier states were published before the previous layer barrier,
    // so the sharded store's lock-free decode is ordered.
    store.load(index, state_buf_);
    halt_ = Halt::kNone;
    pending_top_ = 0;
    expand_one(store, index, state_buf_, 0);
    while (halt_ == Halt::kNone && pending_top_ > 0) {
      // Swap the item out of its slot: its own expansion pushes new
      // pending entries into the slot just vacated.
      --pending_top_;
      std::swap(cur_fused_, pending_states_[pending_top_]);
      expand_one(store, index, cur_fused_, pending_depths_[pending_top_]);
    }
    return halt_;
  }

  /// The stored chain to the best hit: canonical images from the
  /// initial state's to the hit's.
  template <typename Store>
  std::vector<ta::State> hit_chain(const Store& store) const {
    std::vector<ta::State> chain{found_canon};
    for (std::uint32_t i = found_from; i != Store::kInvalidIndex;
         i = store.parent_of(i)) {
      chain.push_back(store.get(i));
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
  }

  const bool canon;  ///< intern orbit representatives
  const bool por;    ///< ample sets + committed-chain fusion
  std::vector<std::uint32_t> next;  ///< new states for the next layer
  std::uint64_t transitions = 0;
  std::uint64_t fused = 0;
  bool found = false;
  std::uint32_t found_from = 0;  ///< stored state whose expansion hit
  ta::State found_canon;         ///< canonical image of the hit

 private:
  template <typename Store>
  void expand_one(Store& store, std::uint32_t index, const ta::State& s,
                  std::uint32_t fuse_depth) {
    const auto on_view = [&](const ta::SuccessorView& v) {
      return on_target(store, index, v.target, fuse_depth);
    };
    if (por) {
      net_->for_each_successor_reduced(s, scratch_, on_view);
    } else {
      net_->for_each_successor(s, scratch_, on_view);
    }
  }

  template <typename Store>
  bool on_target(Store& store, std::uint32_t index,
                 std::span<const ta::Slot> target, std::uint32_t fuse_depth) {
    ++transitions;
    // Checked before interning so the store never exceeds max_states,
    // no matter the remaining fan-out.
    if (store.size() >= max_states_) {
      halt_ = Halt::kLimit;
      return false;
    }
    // Without reductions the target is its own key: it is interned in
    // place and copied out only when new.
    const bool reduced = canon || por;
    if (reduced) {
      test_buf_.assign(target);
      if (por && fuse_depth < kFusionDepthCap &&
          net_->committed_location_active(test_buf_)) {
        // Transient: evaluate the predicate (fusion must not skip error
        // states), then expand through it without interning.
        if ((*stop_)(test_buf_, stop_scratch_)) {
          if (canon) net_->codec().canonicalize(test_buf_.slots_mut());
          return hit(index);
        }
        ++fused;
        push_pending(target, fuse_depth + 1);
        return true;
      }
      if (canon) net_->codec().canonicalize(test_buf_.slots_mut());
    }
    const auto [child, is_new] =
        store.intern(reduced ? test_buf_.slots() : target, index);
    if (!is_new) return true;
    if (!reduced) test_buf_.assign(target);
    if ((*stop_)(test_buf_, stop_scratch_)) return hit(index);
    next.push_back(child);
    return true;
  }

  // Records the hit whose canonical image is in test_buf_, reached by
  // expanding `index`. Which worker sees which hit depends on
  // scheduling; the lexicographic minimum over canonical images does
  // not.
  bool hit(std::uint32_t index) {
    if (!found || lex_less(test_buf_.slots(), found_canon.slots())) {
      found = true;
      found_from = index;
      found_canon.assign(test_buf_.slots());
    }
    if (!stop_at_hit_) return true;  // finish the layer regardless
    halt_ = Halt::kHit;
    return false;
  }

  // Fused-transient worklist: a swap-out stack of reusable State
  // buffers, so committed-chain expansion allocates only on high-water
  // growth.
  void push_pending(std::span<const ta::Slot> target, std::uint32_t depth) {
    if (pending_top_ < pending_states_.size()) {
      pending_states_[pending_top_].assign(target);
      pending_depths_[pending_top_] = depth;
    } else {
      pending_states_.emplace_back(target);
      pending_depths_.push_back(depth);
    }
    ++pending_top_;
  }

  const ta::Network* net_;
  const StopFn* stop_;
  std::uint64_t max_states_;
  bool stop_at_hit_;
  Halt halt_ = Halt::kNone;
  ta::SuccessorScratch scratch_;       // drives the enumeration
  ta::SuccessorScratch stop_scratch_;  // available to the stop predicate
  ta::State state_buf_;
  ta::State test_buf_;
  ta::State cur_fused_;
  std::vector<ta::State> pending_states_;
  std::vector<std::uint32_t> pending_depths_;
  std::size_t pending_top_ = 0;
};

SearchResult Explorer::run(const StopFn& stop, const SearchLimits& limits) {
  const unsigned threads = resolve_threads(limits.threads);
  if (threads == 1) return run_sequential(stop, limits);
  return run_parallel(stop, limits, threads);
}

SearchResult Explorer::run_sequential(const StopFn& stop,
                                      const SearchLimits& limits) {
  const auto start_time = std::chrono::steady_clock::now();
  LinkedStore store{net_->codec(), limits.compression};
  Worker w{*net_, stop, limits, /*stop_at_hit=*/true};

  SearchResult result;
  const auto finish = [&](bool complete) {
    result.complete = complete;
    result.stats.states = store.size();
    result.stats.transitions = w.transitions;
    result.stats.fused = w.fused;
    result.stats.store_bytes = store.memory_bytes();
    result.stats.elapsed = std::chrono::steady_clock::now() - start_time;
    return result;
  };

  const auto [init_index, init_hit] = w.seed(store);
  if (init_hit) {
    result.found = true;
    result.trace.push_back(TraceStep{"", net_->initial_state()});
    // The initial state already answers the query: nothing beyond it was
    // asked for, so the trivial search is complete, not truncated.
    return finish(true);
  }

  // BFS layer by layer so `depth` is exact and depth limits are honest.
  std::vector<std::uint32_t> frontier{init_index};
  while (!frontier.empty()) {
    if (limits.max_depth != 0 && result.stats.depth >= limits.max_depth) {
      return finish(false);
    }
    ++result.stats.depth;
    for (const std::uint32_t index : frontier) {
      switch (w.expand(store, index)) {
        case Worker::Halt::kNone:
          break;
        case Worker::Halt::kLimit:
          return finish(false);
        case Worker::Halt::kHit:
          result.found = true;
          result.trace = rebuild_trace(w.hit_chain(store), w.canon, w.por);
          return finish(false);
      }
    }
    frontier.swap(w.next);
    w.next.clear();
  }
  return finish(true);
}

SearchResult Explorer::run_parallel(const StopFn& stop,
                                    const SearchLimits& limits,
                                    unsigned threads) {
  const auto start_time = std::chrono::steady_clock::now();
  ConcurrentStateStore store{net_->codec(), limits.compression};
  std::vector<Worker> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back(*net_, stop, limits, /*stop_at_hit=*/false);
  }

  SearchResult result;
  const auto finish = [&](bool complete) {
    result.complete = complete;
    result.stats.states = store.size();
    result.stats.store_bytes = store.memory_bytes();
    result.stats.elapsed = std::chrono::steady_clock::now() - start_time;
    return result;
  };

  const auto [init_index, init_hit] = workers[0].seed(store);
  if (init_hit) {
    result.found = true;
    result.trace.push_back(TraceStep{"", net_->initial_state()});
    return finish(true);
  }

  // Layer-synchronous BFS. Each layer, workers claim frontier chunks via
  // an atomic cursor and expand them into the sharded store, which
  // records parent links at intern time. A layer always runs to
  // completion — target hits never abort it — and the layer's hit is the
  // lexicographic minimum over the workers' canonical images, so the set
  // of states discovered per layer, and with it every verdict, depth and
  // counterexample length, is independent of scheduling (the replayed
  // path itself may differ between runs: parent links are first-
  // inserter-wins).
  std::vector<std::uint32_t> frontier{init_index};
  std::vector<std::uint32_t> next_frontier;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> limit_hit{false};
  std::atomic<bool> done{false};
  std::size_t chunk = 1;
  std::barrier<> sync(static_cast<std::ptrdiff_t>(threads));

  const auto expand = [&](Worker& w) {
    while (!limit_hit.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= frontier.size()) return;
      const std::size_t end = std::min(begin + chunk, frontier.size());
      for (std::size_t i = begin; i < end; ++i) {
        if (w.expand(store, frontier[i]) == Worker::Halt::kLimit) {
          limit_hit.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (true) {
        sync.arrive_and_wait();  // layer start (or shutdown)
        if (done.load(std::memory_order_relaxed)) return;
        expand(workers[t]);
        sync.arrive_and_wait();  // layer end
      }
    });
  }

  bool complete = false;
  const Worker* best = nullptr;
  while (true) {
    if (limit_hit.load(std::memory_order_relaxed)) break;
    if (frontier.empty()) {
      complete = true;
      break;
    }
    if (limits.max_depth != 0 && result.stats.depth >= limits.max_depth) {
      break;
    }
    ++result.stats.depth;
    cursor.store(0, std::memory_order_relaxed);
    chunk = std::clamp<std::size_t>(
        frontier.size() / (static_cast<std::size_t>(threads) * 8), 1, 1024);
    sync.arrive_and_wait();  // release the layer
    expand(workers[0]);
    sync.arrive_and_wait();  // wait for stragglers

    for (const auto& w : workers) {
      if (!w.found) continue;
      if (best == nullptr ||
          lex_less(w.found_canon.slots(), best->found_canon.slots())) {
        best = &w;
      }
    }
    if (best != nullptr) break;
    next_frontier.clear();
    for (auto& w : workers) {
      next_frontier.insert(next_frontier.end(), w.next.begin(), w.next.end());
      w.next.clear();
    }
    frontier.swap(next_frontier);
  }

  done.store(true, std::memory_order_relaxed);
  sync.arrive_and_wait();  // let the pool observe `done` and exit
  for (auto& t : pool) t.join();
  for (const auto& w : workers) {
    result.stats.transitions += w.transitions;
    result.stats.fused += w.fused;
  }

  if (best != nullptr) {
    result.found = true;
    result.trace =
        rebuild_trace(best->hit_chain(store), best->canon, best->por);
    return finish(false);
  }
  return finish(complete);
}

SearchResult Explorer::reach(const Pred& target, const SearchLimits& limits) {
  AHB_EXPECTS(target != nullptr);
  return run(
      [&](const ta::State& s, ta::SuccessorScratch&) {
        return target(ta::StateView{*net_, s});
      },
      limits);
}

SearchResult Explorer::find_deadlock(const SearchLimits& limits) {
  return run(
      [&](const ta::State& s, ta::SuccessorScratch& scratch) {
        return !net_->has_successor(s, scratch);
      },
      limits);
}

SearchStats Explorer::explore_all(const SearchLimits& limits) {
  return run([](const ta::State&, ta::SuccessorScratch&) { return false; },
             limits)
      .stats;
}

SearchResult Explorer::check_invariant(const Pred& invariant,
                                       const SearchLimits& limits) {
  AHB_EXPECTS(invariant != nullptr);
  SearchResult r = run(
      [&](const ta::State& s, ta::SuccessorScratch&) {
        return !invariant(ta::StateView{*net_, s});
      },
      limits);
  return r;
}

std::vector<TraceStep> Explorer::rebuild_trace(
    const std::vector<ta::State>& canonical_chain, bool canon,
    bool por) const {
  std::vector<TraceStep> trace;
  if (canonical_chain.empty()) return trace;
  const ta::StateCodec& codec = net_->codec();
  ta::State canon_buf;
  const auto matches = [&](const ta::State& real, const ta::State& image) {
    canon_buf.assign(real.slots());
    if (canon) codec.canonicalize(canon_buf.slots_mut());
    return std::ranges::equal(canon_buf.slots(), image.slots());
  };

  // Replay starts from the *real* initial state, whose canonical image
  // is canonical_chain[0]; every appended state is then a real
  // successor, so participant ids in the rendered trace are genuine.
  trace.push_back(TraceStep{"", net_->initial_state()});

  // Per stored step, a bounded DFS over real successors: match directly
  // first (shortest extension), then descend through transient states —
  // fusion only ever skipped transients, so gaps close within the
  // fusion depth cap. This is the cold counterexample path; the
  // allocating successors() API keeps it simple.
  const std::uint32_t budget0 = 1 + (por ? kFusionDepthCap : 0);
  const auto extend = [&](auto&& self, const ta::State& from,
                          const ta::State& image,
                          std::uint32_t budget) -> bool {
    if (budget == 0) return false;
    const std::vector<ta::Transition> succs = net_->successors(from);
    for (const auto& t : succs) {
      if (matches(t.target, image)) {
        trace.push_back(TraceStep{net_->label_of(t), t.target});
        return true;
      }
    }
    if (!por) return false;
    for (const auto& t : succs) {
      if (!net_->committed_location_active(t.target)) continue;
      trace.push_back(TraceStep{net_->label_of(t), t.target});
      if (self(self, t.target, image, budget - 1)) return true;
      trace.pop_back();
    }
    return false;
  };

  for (std::size_t i = 1; i < canonical_chain.size(); ++i) {
    // Copy: extend() grows `trace`, which would invalidate a reference
    // into it.
    const ta::State cur = trace.back().state;
    if (!extend(extend, cur, canonical_chain[i], budget0)) {
      // Unreachable when the model honors the equivariance contract;
      // keep the canonical image so a broken trace stays inspectable.
      trace.push_back(TraceStep{"<unreplayed>", canonical_chain[i]});
    }
  }
  return trace;
}

}  // namespace ahb::mc
