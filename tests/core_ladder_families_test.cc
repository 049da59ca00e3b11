// Demand-driven ladder families (DESIGN.md §10, §12): a pipeline's ladders,
// prewarm and asset-store warms measure only the families its Stage-2 solver
// reads (Aw4aPipeline::ladder_families), and only as deep as it reads them
// (Aw4aPipeline::ladder_options().min_ssim). The load-bearing properties
// pinned here:
//   - tiers are bit-identical to a build whose ladders hold every family,
//     for HBS and Grid Search, Huffman and rANS, with and without the
//     ultra-low tiers, the asset store, and the parallel prewarm;
//   - an HBS build shares memos without quality families and encodes less;
//   - an HBS build's Qt-deep resolution families give the tiers of families
//     measured 0.15 deeper, with strictly fewer encodes and prepares;
//   - a Grid Search build keeps the joint full-resolution pass, so it runs
//     exactly the encodes and prepares of an all-families lazy build.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dataset/corpus.h"
#include "imaging/variants.h"
#include "serving/asset_store.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

using Stage2 = DeveloperConfig::Stage2;

web::WebPage rich_page(std::uint64_t seed, double mb) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(mb), gen.global_profile());
}

struct NamedConfig {
  std::string name;
  DeveloperConfig config;
};

std::vector<NamedConfig> configs() {
  DeveloperConfig base;
  base.tier_reductions = {1.25, 1.5, 3.0};
  base.measure_qfs = false;

  DeveloperConfig hbs_rans_ultra = base;
  hbs_rans_ultra.entropy_backend = imaging::EntropyBackend::kRans;
  hbs_rans_ultra.ultra_low.text_only = true;
  hbs_rans_ultra.ultra_low.markup_rewrite = true;

  DeveloperConfig grid = base;
  grid.stage2 = Stage2::kGridSearch;
  grid.grid_timeout_seconds = 120.0;  // the DFS must finish: a timeout is not deterministic

  DeveloperConfig grid_ultra = grid;
  grid_ultra.ultra_low.text_only = true;
  grid_ultra.ultra_low.markup_rewrite = true;

  return {{"hbs+huffman", base},
          {"hbs+rans+ultra", hbs_rans_ultra},
          {"grid", grid},
          {"grid+ultra", grid_ultra}};
}

/// The all-families reference: every acquire warms a fresh ladder over every
/// family, so each LadderCache slot holds all five families before any
/// solver reads it — what every build did before ladders were demand-driven.
class AllFamiliesSource final : public imaging::AssetLadderSource {
 public:
  std::shared_ptr<const imaging::VariantMemo> acquire(
      const std::shared_ptr<const imaging::SourceImage>& asset,
      const imaging::LadderOptions& options, const imaging::LadderFamilies& /*families*/,
      const obs::RequestContext& ctx) override {
    imaging::VariantLadder ladder(asset, options);
    ladder.warm(ctx);
    return std::make_shared<const imaging::VariantMemo>(ladder.snapshot());
  }
};

/// The full-depth reference: warms the caller's families 0.15 below the
/// caller's floor, as deep as HBS ladders were measured before they stopped
/// at Qt, so every resolution family runs on past the rung that ends the
/// walk.
class FullDepthSource final : public imaging::AssetLadderSource {
 public:
  std::shared_ptr<const imaging::VariantMemo> acquire(
      const std::shared_ptr<const imaging::SourceImage>& asset,
      const imaging::LadderOptions& options, const imaging::LadderFamilies& families,
      const obs::RequestContext& ctx) override {
    imaging::LadderOptions deep = options;
    deep.min_ssim = options.min_ssim - 0.15;
    imaging::VariantLadder ladder(asset, deep, families);
    ladder.warm(ctx);
    return std::make_shared<const imaging::VariantMemo>(ladder.snapshot());
  }
};

/// Forwards to an AssetStore and records every memo and family set it saw
/// (prewarm workers call it concurrently).
class RecordingSource final : public imaging::AssetLadderSource {
 public:
  std::shared_ptr<const imaging::VariantMemo> acquire(
      const std::shared_ptr<const imaging::SourceImage>& asset,
      const imaging::LadderOptions& options, const imaging::LadderFamilies& families,
      const obs::RequestContext& ctx) override {
    auto memo = store_.acquire(asset, options, families, ctx);
    const std::lock_guard lock(mutex_);
    memos_.push_back(memo);
    families_.push_back(families);
    return memo;
  }

  const std::vector<std::shared_ptr<const imaging::VariantMemo>>& memos() const {
    return memos_;
  }
  const std::vector<imaging::LadderFamilies>& families() const { return families_; }

 private:
  serving::AssetStore store_;
  std::mutex mutex_;
  std::vector<std::shared_ptr<const imaging::VariantMemo>> memos_;
  std::vector<imaging::LadderFamilies> families_;
};

void expect_same_variant(const imaging::ImageVariant& got, const imaging::ImageVariant& want,
                         const std::string& where) {
  EXPECT_EQ(got.format, want.format) << where;
  EXPECT_EQ(got.scale, want.scale) << where;
  EXPECT_EQ(got.quality, want.quality) << where;
  EXPECT_EQ(got.bytes, want.bytes) << where;
  EXPECT_EQ(got.ssim, want.ssim) << where;
  EXPECT_EQ(got.kind, want.kind) << where;
}

void expect_same_tiers(const std::vector<Tier>& got, const std::vector<Tier>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string where = label + " tier " + std::to_string(i);
    EXPECT_EQ(got[i].kind, want[i].kind) << where;
    EXPECT_EQ(got[i].built, want[i].built) << where;
    EXPECT_EQ(got[i].result.result_bytes, want[i].result.result_bytes) << where;
    EXPECT_EQ(got[i].result.algorithm, want[i].result.algorithm) << where;
    const auto& got_images = got[i].result.served.images;
    const auto& want_images = want[i].result.served.images;
    ASSERT_EQ(got_images.size(), want_images.size()) << where;
    for (const auto& [id, image] : want_images) {
      const std::string at = where + " image " + std::to_string(id);
      const auto it = got_images.find(id);
      ASSERT_NE(it, got_images.end()) << at;
      EXPECT_EQ(it->second.dropped, image.dropped) << at;
      ASSERT_EQ(it->second.variant.has_value(), image.variant.has_value()) << at;
      if (image.variant) expect_same_variant(*it->second.variant, *image.variant, at);
    }
  }
}

struct Built {
  std::vector<Tier> tiers;
  imaging::BuildWorkStats work;
};

Built build(const Aw4aPipeline& pipeline, const web::WebPage& page, unsigned workers,
            imaging::AssetLadderSource* assets) {
  obs::RequestContext ctx;
  if (workers > 0) ctx = ctx.with_workers(workers);
  imaging::reset_build_work_stats();
  Built out;
  out.tiers = pipeline.build_tiers(page, ctx, assets);
  out.work = imaging::build_work_stats();
  return out;
}

TEST(LadderFamilies, DerivedFromTheStage2Solver) {
  DeveloperConfig config;
  config.min_image_ssim = 0.85;
  EXPECT_EQ(Aw4aPipeline(config).ladder_families(),
            (imaging::LadderFamilies{.resolution = true, .quality = false}));
  // HBS reads each resolution family down to its first rung below Qt.
  EXPECT_EQ(Aw4aPipeline(config).ladder_options().min_ssim, 0.85);
  config.stage2 = Stage2::kGridSearch;
  EXPECT_EQ(Aw4aPipeline(config).ladder_families(),
            (imaging::LadderFamilies{.resolution = false, .quality = true}));
  // Grid Search scans whole quality families: slack below Qt.
  EXPECT_EQ(Aw4aPipeline(config).ladder_options().min_ssim, 0.85 - 0.15);
}

TEST(LadderFamilies, TiersMatchAnAllFamiliesBuildBitForBit) {
  const web::WebPage page = rich_page(54, 1.2);  // 3 PNGs, 6 JPEGs
  for (const NamedConfig& named : configs()) {
    const Aw4aPipeline pipeline(named.config);
    const bool grid = named.config.stage2 == Stage2::kGridSearch;

    AllFamiliesSource all_families;
    const Built reference = build(pipeline, page, 0, &all_families);
    for (const Tier& tier : reference.tiers) {
      ASSERT_EQ(tier.result.algorithm.find("timeout"), std::string::npos)
          << named.name << ": the reference Grid Search must finish";
    }
    // HBS ladders stop at Qt; the full-depth reference runs 0.15 past it.
    FullDepthSource full_depth;
    const Built deeper = grid ? Built{} : build(pipeline, page, 0, &full_depth);

    for (const bool store_on : {false, true}) {
      for (const unsigned workers : {0u, 2u}) {
        const std::string label = named.name + (store_on ? " store" : " local") +
                                  " workers=" + std::to_string(workers);
        RecordingSource store;
        const Built derived = build(pipeline, page, workers, store_on ? &store : nullptr);
        expect_same_tiers(derived.tiers, reference.tiers, label);

        // Work: HBS skips the quality families the reference measured; Grid
        // never pays more than the reference.
        if (grid) {
          EXPECT_LE(derived.work.encodes, reference.work.encodes) << label;
          EXPECT_LE(derived.work.prepares, reference.work.prepares) << label;
        } else {
          EXPECT_LT(derived.work.encodes, reference.work.encodes) << label;
          expect_same_tiers(derived.tiers, deeper.tiers, label + " vs full depth");
          EXPECT_LT(derived.work.encodes, deeper.work.encodes) << label;
          EXPECT_LT(derived.work.prepares, deeper.work.prepares) << label;
        }

        if (!store_on) continue;
        ASSERT_FALSE(store.memos().empty()) << label;
        for (const imaging::LadderFamilies& families : store.families()) {
          EXPECT_EQ(families, pipeline.ladder_families()) << label;
        }
        for (const auto& memo : store.memos()) {
          ASSERT_NE(memo, nullptr) << label;
          EXPECT_TRUE(memo->webp_full.has_value()) << label;
          for (std::size_t f = 0; f < 3; ++f) {
            if (grid) {
              EXPECT_FALSE(memo->res_family[f].has_value()) << label << " family " << f;
            } else {
              EXPECT_FALSE(memo->qual_family[f].has_value()) << label << " family " << f;
            }
          }
        }
      }
    }
  }
}

TEST(LadderFamilies, GridSearchRunsExactlyTheAllFamiliesLazyWork) {
  // The lazy Grid build (no prewarm, no store) against the same tier loop
  // over one all-families LadderCache: the joint full-resolution pass still
  // prepares the original once for webp_full and both quality families.
  const web::WebPage page = rich_page(55, 0.6);
  DeveloperConfig config = configs()[2].config;
  ASSERT_EQ(config.stage2, Stage2::kGridSearch);
  ASSERT_FALSE(config.ultra_low.any());
  const Aw4aPipeline pipeline(config);

  imaging::reset_build_work_stats();
  LadderCache all_families(pipeline.ladder_options());
  std::vector<TranscodeResult> reference;
  for (const double reduction : config.tier_reductions) {
    const auto target =
        static_cast<Bytes>(static_cast<double>(page.transfer_size()) / reduction);
    reference.push_back(
        pipeline.transcode_to_target(page, target, all_families, obs::RequestContext()));
  }
  const imaging::BuildWorkStats reference_work = imaging::build_work_stats();
  ASSERT_GT(reference_work.encodes, 0u);

  const Built derived = build(pipeline, page, 0, nullptr);
  ASSERT_EQ(derived.tiers.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(derived.tiers[i].result.result_bytes, reference[i].result_bytes) << "tier " << i;
    EXPECT_EQ(derived.tiers[i].result.algorithm, reference[i].algorithm) << "tier " << i;
  }
  EXPECT_EQ(derived.work.encodes, reference_work.encodes);
  EXPECT_EQ(derived.work.prepares, reference_work.prepares);
  EXPECT_EQ(derived.work.encoded_bytes, reference_work.encoded_bytes);
}

}  // namespace
}  // namespace aw4a::core
