#include "serving/asset_store.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/error.h"
#include "util/fault.h"
#include "util/hash.h"

namespace aw4a::serving {

std::size_t AssetKeyHash::operator()(const AssetKey& key) const {
  return static_cast<std::size_t>(
      hash_mix(hash_mix(0x6177346173737421ULL, key.content), key.recipe));
}

AssetStoreStats& AssetStoreStats::operator+=(const AssetStoreStats& other) {
  lookups += other.lookups;
  exact_hits += other.exact_hits;
  semantic_hits += other.semantic_hits;
  misses += other.misses;
  probes += other.probes;
  inserts += other.inserts;
  evictions += other.evictions;
  build_failures += other.build_failures;
  resident_entries += other.resident_entries;
  resident_bytes += other.resident_bytes;
  return *this;
}

AssetStore::AssetStore(AssetStoreOptions options) : options_(std::move(options)) {
  AW4A_EXPECTS(options_.capacity_bytes > 0);
  AW4A_EXPECTS(options_.shards > 0);
  AW4A_EXPECTS(options_.semantic_min_ssim > 0.0 && options_.semantic_min_ssim <= 1.0);
  AW4A_EXPECTS(options_.semantic_probe_limit > 0);
  AW4A_EXPECTS(options_.thumbprint_dim > 0);
  const std::size_t shard_count = std::bit_ceil(options_.shards);
  shards_.resize(shard_count);
  shard_capacity_ = std::max<Bytes>(1, options_.capacity_bytes / shard_count);
}

AssetStore::Shard& AssetStore::shard_of(std::uint64_t ahash, std::uint64_t recipe) {
  // Sharded by perceptual bucket (+ recipe), not by exact content: near
  // duplicates hash to the same shard, so the semantic probe is local.
  const std::uint64_t h = hash_mix(hash_mix(0x6177346173686421ULL, ahash), recipe);
  return shards_[static_cast<std::size_t>(h) & (shards_.size() - 1)];
}

Bytes AssetStore::entry_cost(const Entry& entry) {
  Bytes cost = static_cast<Bytes>(sizeof(Entry)) +
               static_cast<Bytes>(entry.thumbprint.v.size() * sizeof(float));
  const imaging::VariantMemo& memo = *entry.memo;
  const auto family_cost = [](const std::optional<std::vector<imaging::ImageVariant>>& f) {
    return f ? static_cast<Bytes>(f->size() * sizeof(imaging::ImageVariant)) : 0;
  };
  for (std::size_t i = 0; i < 3; ++i) {
    cost += family_cost(memo.res_family[i]) + family_cost(memo.qual_family[i]);
  }
  cost += static_cast<Bytes>(sizeof(imaging::VariantMemo));
  return cost;
}

void AssetStore::admit(Shard& shard, const AssetKey& key, std::uint64_t ahash,
                       imaging::PlaneF thumbprint, const MemoPtr& memo) {
  Entry entry{memo, std::move(thumbprint), ahash};
  const Bytes cost = entry_cost(entry);
  const std::lock_guard lock(shard.mutex);
  if (shard.lru.touch(key) != nullptr) return;  // a concurrent flight landed first
  if (cost > shard_capacity_) return;           // never admit what a shard can't hold
  while (shard.lru.total_cost() + cost > static_cast<std::uint64_t>(shard_capacity_)) {
    auto victim = shard.lru.evict_lru();
    if (!victim) break;
    ++shard.counters.evictions;
    // Keep the semantic index exact: a probe must never surface an evicted
    // key (it would "hit" a memo the LRU already dropped).
    const auto bucket = shard.by_ahash.find(victim->value.ahash);
    if (bucket != shard.by_ahash.end()) {
      std::erase(bucket->second, victim->key);
      if (bucket->second.empty()) shard.by_ahash.erase(bucket);
    }
  }
  shard.lru.insert(key, std::move(entry), static_cast<std::uint64_t>(cost));
  shard.by_ahash[ahash].push_back(key);
  ++shard.counters.inserts;
}

AssetStore::MemoPtr AssetStore::acquire(
    const std::shared_ptr<const imaging::SourceImage>& asset,
    const imaging::LadderOptions& options, const imaging::LadderFamilies& families,
    const obs::RequestContext& ctx) {
  AW4A_EXPECTS(asset != nullptr);
  try {
    AW4A_FAULT_POINT("serving.asset.store");
    std::uint64_t content = 0;
    std::uint64_t recipe = 0;
    std::uint64_t ahash = 0;
    {
      AW4A_SPAN(ctx, "serving.asset.fingerprint");
      content = imaging::asset_fingerprint(*asset);
      // The family set is part of the recipe: an HBS memo lacks the quality
      // families a Grid Search ladder reads (and vice versa), so the two are
      // separate entries, built by separate flights and never semantic
      // matches of each other.
      recipe = hash_mix(hash_mix(imaging::asset_shape_fingerprint(*asset),
                                 imaging::ladder_options_fingerprint(options)),
                        families.bits());
      ahash = imaging::average_hash(asset->original);
    }
    const AssetKey key{content, recipe};
    Shard& shard = shard_of(ahash, recipe);

    {
      const std::lock_guard lock(shard.mutex);
      ++shard.counters.lookups;
      if (Entry* entry = shard.lru.touch(key)) {
        ++shard.counters.exact_hits;
        return entry->memo;
      }
    }

    // Exact probe missed. The semantic probe needs this asset's thumbprint;
    // compute it outside the lock (it is a resize + luma extraction), then
    // re-check exact first — a concurrent warm may have landed meanwhile.
    // The thumbprint doubles as the stored signature of a fresh entry, so it
    // is computed even when semantic matching is off.
    imaging::PlaneF thumbprint =
        imaging::luma_thumbprint(asset->original, options_.thumbprint_dim);
    if (options_.semantic_enabled) {
      AW4A_SPAN(ctx, "serving.asset.probe");
      const std::lock_guard lock(shard.mutex);
      if (Entry* entry = shard.lru.touch(key)) {
        ++shard.counters.exact_hits;
        return entry->memo;
      }
      const auto bucket = shard.by_ahash.find(ahash);
      if (bucket != shard.by_ahash.end()) {
        std::size_t scored = 0;
        for (const AssetKey& candidate : bucket->second) {
          if (candidate.recipe != recipe) continue;
          if (scored >= options_.semantic_probe_limit) break;
          const Entry* entry = shard.lru.peek(candidate);
          if (entry == nullptr) continue;  // defensive: index says resident
          if (entry->thumbprint.width != thumbprint.width ||
              entry->thumbprint.height != thumbprint.height) {
            continue;
          }
          ++scored;
          ++shard.counters.probes;
          if (imaging::thumbprint_similarity(thumbprint, entry->thumbprint) >=
              options_.semantic_min_ssim) {
            ++shard.counters.semantic_hits;
            Entry* hit = shard.lru.touch(candidate);  // refresh recency
            return hit != nullptr ? hit->memo : nullptr;
          }
        }
      }
      ++shard.counters.misses;
    } else {
      const std::lock_guard lock(shard.mutex);
      ++shard.counters.misses;
    }

    // Cold content: warm the requested families once per key. The
    // flight collapses concurrent builds of the same content from *any*
    // page identity, and the leader builds under the union of every
    // waiter's deadline (joiners CAS-max theirs in).
    return flight_.run(
        key,
        [&](const std::atomic<double>& shared_deadline) -> MemoPtr {
          const obs::RequestContext build_ctx = ctx.with_shared_deadline(&shared_deadline);
          {
            // Double-check: between our miss and winning the flight, a
            // completed flight may have admitted this key.
            const std::lock_guard lock(shard.mutex);
            if (Entry* entry = shard.lru.touch(key)) return entry->memo;
          }
          MemoPtr memo;
          {
            AW4A_SPAN(ctx, "serving.asset.build");
            imaging::VariantLadder ladder(asset, options, families);
            ladder.warm(build_ctx);
            memo = std::make_shared<const imaging::VariantMemo>(ladder.snapshot());
          }
          admit(shard, key, ahash, std::move(thumbprint), memo);
          return memo;
        },
        ctx.deadline_at());
  } catch (const Error&) {
    // Containment: a store failure (fault point, codec fault surviving its
    // retry, exhausted deadline) must never fail the request — the caller
    // enumerates locally under the pipeline's normal retry/degradation.
    build_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
}

AssetStoreStats AssetStore::stats() const {
  AssetStoreStats total;
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    AssetStoreStats with_gauges = shard.counters;
    with_gauges.resident_entries = shard.lru.size();
    with_gauges.resident_bytes = static_cast<Bytes>(shard.lru.total_cost());
    total += with_gauges;
  }
  total.build_failures += build_failures_.load(std::memory_order_relaxed);
  return total;
}

}  // namespace aw4a::serving
