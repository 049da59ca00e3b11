// ShardedByteLru: the one sharded, byte-budgeted LRU core under both serving
// stores — TierCache (built ladders keyed by page identity) and AssetStore
// (ladder families keyed by asset content).
//
// It owns what the two stores share: a power-of-two array of shards, each a
// mutex + intrusive LRU (util/lru.h) + the store's own counters (+ an
// optional per-shard extra, e.g. AssetStore's semantic index); the capacity
// split evenly across shards; evict-to-fit admission; and stats summed over
// shards with the resident gauges filled in. Policy stays with the stores:
// TierCache layers TTL, staleness and replace on top, AssetStore its
// two-stage probe and flight. The shard is picked from a caller-supplied
// hash, so each store keeps its own placement rule.
//
// Everything is a template inlined into the caller — no std::function, no
// virtual call, no lock beyond the shard's own — because TierCache::fetch is
// on every request's path.
//
// Counters must provide `inserts`, `evictions`, `resident_entries`,
// `resident_bytes` and `operator+=`.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>

#include "util/bytes.h"
#include "util/error.h"
#include "util/lru.h"

namespace aw4a::serving {

struct NoShardExtra {};
struct NoEvictHook {
  void operator()(const auto&) const {}
};

template <typename Key, typename Value, typename Hash, typename Counters,
          typename ShardExtra = NoShardExtra>
class ShardedByteLru {
 public:
  struct Shard {
    mutable std::mutex mutex;
    LruMap<Key, Value, Hash> lru;
    Counters counters;  // guarded by mutex; gauges filled at snapshot
    [[no_unique_address]] ShardExtra extra;  // guarded by mutex
  };

  /// `shards` is rounded up to a power of two (0 counts as 1); the capacity
  /// must cover at least one byte per shard.
  ShardedByteLru(std::size_t shards, Bytes capacity_bytes)
      : shards_(std::bit_ceil(std::max<std::size_t>(1, shards))) {
    AW4A_EXPECTS(capacity_bytes >= shards_.size());
    shard_capacity_ = capacity_bytes / shards_.size();
  }

  /// The shard owning `hash`'s low bits.
  Shard& shard(std::uint64_t hash) {
    return shards_[static_cast<std::size_t>(hash) & (shards_.size() - 1)];
  }

  /// Inserts `key` (absent; caller holds `shard.mutex`) as most recent,
  /// evicting least-recently-used entries until it fits and handing each
  /// victim to `on_evict` first. False, and nothing evicted, when `cost`
  /// exceeds a whole shard.
  template <typename OnEvict = NoEvictHook>
  bool admit_locked(Shard& shard, Key key, Value value, Bytes cost, OnEvict on_evict = {}) {
    if (cost > shard_capacity_) return false;
    while (shard.lru.total_cost() + cost > shard_capacity_) {
      const auto victim = shard.lru.evict_lru();
      if (!victim) break;
      ++shard.counters.evictions;
      on_evict(*victim);
    }
    shard.lru.insert(std::move(key), std::move(value), cost);
    ++shard.counters.inserts;
    return true;
  }

  /// Runs `fn(shard)` on every shard in turn, each under its lock.
  template <typename Fn>
  void for_each_locked(Fn fn) {
    for (Shard& shard : shards_) {
      const std::lock_guard lock(shard.mutex);
      fn(shard);
    }
  }

  /// Counters summed over shards, resident gauges included.
  Counters stats() const {
    Counters total;
    for (const Shard& shard : shards_) {
      const std::lock_guard lock(shard.mutex);
      Counters with_gauges = shard.counters;
      with_gauges.resident_entries = shard.lru.size();
      with_gauges.resident_bytes = shard.lru.total_cost();
      total += with_gauges;
    }
    return total;
  }

  std::size_t shard_count() const { return shards_.size(); }
  Bytes capacity_bytes() const { return shard_capacity_ * shards_.size(); }

 private:
  Bytes shard_capacity_ = 0;
  std::deque<Shard> shards_;  // deque: Shard is immovable (mutex member)
};

}  // namespace aw4a::serving
