#include "core/objective.h"

#include "util/error.h"
#include "util/parallel.h"

namespace aw4a::core {

double weighted_quality(std::span<const ObjectiveTerm> terms) {
  double num = 0.0;
  double den = 0.0;
  for (const ObjectiveTerm& t : terms) {
    AW4A_EXPECTS(t.weight >= 0.0);
    num += t.weight * t.quality;
    den += t.weight;
  }
  AW4A_EXPECTS(den > 0.0);
  return num / den;
}

LadderCache::LadderCache(imaging::LadderOptions options, imaging::AssetLadderSource* assets,
                         imaging::LadderFamilies families)
    : options_(std::move(options)), assets_(assets), families_(families) {}

LadderCache::Slot& LadderCache::slot_for(const web::WebObject& object) {
  AW4A_EXPECTS(object.type == web::ObjectType::kImage);
  AW4A_EXPECTS(object.image != nullptr);
  const auto it = ladders_.find(object.id);
  if (it != ladders_.end()) return it->second;
  return ladders_
      .emplace(std::piecewise_construct, std::forward_as_tuple(object.id),
               std::forward_as_tuple(
                   imaging::VariantLadder(object.image, options_, families_)))
      .first->second;
}

imaging::VariantLadder& LadderCache::ladder_for(const web::WebObject& object,
                                                const obs::RequestContext& ctx) {
  Slot& slot = slot_for(object);
  if (assets_ != nullptr && !slot.probed) {
    // One content-keyed probe per object: a hit adopts the shared families
    // (bit-identical to local enumeration for exact hits), a miss — or a
    // store failure, which surfaces as nullptr — leaves the ladder lazy.
    slot.probed = true;
    if (const auto memo = assets_->acquire(object.image, options_, families_, ctx)) {
      slot.ladder.adopt(*memo);
    }
  }
  return slot.ladder;
}

void LadderCache::prewarm(const web::WebPage& page, const obs::RequestContext& ctx) {
  AW4A_SPAN(ctx, "prewarm");
  const std::vector<const web::WebObject*> images = rich_images(page);
  // Create every slot serially: map insertion is the only shared-state
  // mutation, and doing it up front means the parallel section below touches
  // one distinct, already-constructed slot per index. The asset-source probe
  // moves into the parallel body so store warms for distinct assets overlap
  // instead of serializing here.
  std::vector<Slot*> slots;
  slots.reserve(images.size());
  for (const web::WebObject* object : images) slots.push_back(&slot_for(*object));

  try {
    parallel_for(
        slots.size(),
        [&](std::size_t i) {
          Slot& slot = *slots[i];
          imaging::VariantLadder& ladder = slot.ladder;
          try {
            if (assets_ != nullptr && !slot.probed) {
              slot.probed = true;
              if (const auto memo =
                      assets_->acquire(images[i]->image, options_, families_, ctx)) {
                ladder.adopt(*memo);
              }
            }
            ladder.warm(ctx);
          } catch (const Error&) {
            // Best-effort: a failed family (codec fault, expired deadline)
            // memoizes nothing, and the serial solver path re-attempts it
            // under tier retry/degradation, so a prewarm-time fault cannot
            // change outcomes.
          }
        },
        ctx.workers(),
        // Stop claiming ladders once the request's budget is gone: an
        // expired deadline turns the remaining prewarm into pure waste (the
        // per-ladder bodies would each start and immediately abort).
        [&ctx] { return ctx.expired() || ctx.cancelled(); });
  } catch (const DeadlineExceeded&) {
    // Same best-effort contract as a per-ladder deadline: the serial path
    // reports the budget overrun with full tier context.
  }
}

std::optional<imaging::ImageVariant> LadderCache::placeholder_rung(
    const web::WebObject& object) const {
  if (!options_.placeholder_rung) return std::nullopt;
  AW4A_EXPECTS(object.type == web::ObjectType::kImage);
  AW4A_EXPECTS(object.image != nullptr);
  return imaging::placeholder_variant(*object.image, options_, object.alt_text.size());
}

std::vector<const web::WebObject*> rich_images(const web::WebPage& page) {
  std::vector<const web::WebObject*> out;
  for (const auto& object : page.objects) {
    if (object.type == web::ObjectType::kImage && object.image != nullptr) {
      out.push_back(&object);
    }
  }
  return out;
}

}  // namespace aw4a::core
