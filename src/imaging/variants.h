// Per-image optimization search space.
//
// A SourceImage is one image asset on a page: a synthesized raster plus its
// shipped format and wire size. Because the paper's images are hundreds of KB
// while our proxy rasters are small, each asset carries a byte_scale mapping
// encoder output to page-scale wire bytes; *ratios* between variants — which
// is all the optimizer consumes — are exact encoder measurements.
//
// A VariantLadder lazily enumerates reduced versions of the asset:
//   - the resolution family (RBR's "linearly reduce the resolution"),
//   - the quality family (Grid Search's SSIM-level versions),
//   - the full-resolution WebP transcode (Stage-1's PNG->WebP rule),
// measuring real (bytes, SSIM-after-redisplay) for each. Results are memoized
// per asset, so repeated optimizer passes are cheap. A ladder's
// LadderFamilies say which of the resolution and quality families it
// measures eagerly (warm(), the joint full-resolution pass) beside the
// always-warmed transcode; any family is still measured on first read.
// LadderOptions::min_ssim says how deep: each family ends at its first rung
// below that floor.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "imaging/codec.h"
#include "imaging/ssim.h"
#include "imaging/raster.h"
#include "imaging/synth.h"
#include "obs/context.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace aw4a::imaging {

/// One image asset as shipped on a page.
struct SourceImage {
  std::uint64_t id = 0;
  Raster original;
  ImageClass cls = ImageClass::kPhoto;
  ImageFormat format = ImageFormat::kJpeg;  ///< shipped format
  int ship_quality = 85;                    ///< quality the original was encoded at
  Bytes wire_bytes = 0;                     ///< shipped (compressed) size on the page
  /// Wire bytes per encoder *payload* byte. Proxy rasters are small, so the
  /// container header would dominate and artificially floor deep reductions;
  /// scaling the payload only (plus a fixed real-world header) keeps byte
  /// ratios faithful to full-size images.
  double byte_scale = 1.0;
  int display_w = 0;                        ///< CSS pixels occupied on the page
  int display_h = 0;

  double display_area() const {
    return static_cast<double>(display_w) * static_cast<double>(display_h);
  }
};

/// Synthesizes an asset of the given class whose shipped wire size is
/// `target_wire_bytes`; display dims default to a class-typical size.
SourceImage make_source_image(Rng& rng, ImageClass cls, Bytes target_wire_bytes);

/// What a degradation rung *does* to the object. The ladder used to be
/// image-quality-only; the heterogeneous rung space (DESIGN.md §14) adds
/// non-encode actions that the same solvers trade off against encode rungs.
enum class DegradationKind : std::uint8_t {
  kQualityRung = 0,  ///< re-encode at reduced scale and/or quality
  kTranscode = 1,    ///< format change at full fidelity settings (PNG->WebP)
  kPlaceholder = 2,  ///< alt-text placeholder box replaces the pixels
  kDrop = 3,         ///< object removed entirely (markup-rewrite tier)
};

/// One reduced version of an asset.
struct ImageVariant {
  ImageFormat format = ImageFormat::kJpeg;
  double scale = 1.0;   ///< resolution scale applied before encoding
  int quality = 85;     ///< codec quality
  Bytes bytes = 0;      ///< page-scale wire bytes (byte_scale applied)
  /// Quality point vs the original. For encode rungs this is measured SSIM
  /// after redisplay; for kPlaceholder it is the analytic similarity floor
  /// (see placeholder_variant) — stored in the same field so QSS and every
  /// `ssim >= threshold` candidate filter work unchanged over mixed rungs.
  double ssim = 1.0;
  DegradationKind kind = DegradationKind::kQualityRung;
  /// Alt-text length backing a kPlaceholder rung (drives both the similarity
  /// floor and the rendered text stripes); 0 for every encode rung.
  std::uint32_t alt_chars = 0;

  bool is_original = false;
};

/// The one acceptance predicate of a quality point against a threshold: every
/// solver filter, the RBR walk and the family enumerators' stop rules use it,
/// so a rung a reader accepts can never be the rung that ends its family. The
/// 1e-12 slack absorbs the last-bit noise of an SSIM sum that lands on Qt.
constexpr bool meets_ssim(double ssim, double threshold) { return ssim + 1e-12 >= threshold; }

struct LadderOptions {
  /// Image-quality metric used for every variant measurement (§6.2: the
  /// framework accepts newer metrics as they appear).
  QualityMetric metric = QualityMetric::kSsim;
  /// Depth of the families: each one ends at its first rung that fails
  /// meets_ssim(ssim, min_ssim), kept as a sentinel. A reader that stops at
  /// its first rung below Qt (the RBR walk, bytes_efficiency) needs no more
  /// than min_ssim = Qt; one that takes the cheapest of every rung at or above
  /// a level on a non-monotone SSIM surface (Grid Search) needs slack below.
  double min_ssim = 0.60;
  /// Resolution step of the RBR family (paper: "resolution granularity").
  double scale_granularity = 0.1;
  /// Smallest resolution scale explored.
  double min_scale = 0.1;
  /// Quality steps of the Grid Search family (at full resolution).
  std::vector<int> quality_steps = {92, 85, 75, 65, 55, 45, 35};
  /// Entropy coder of the lossy codecs for every measured variant. Part of
  /// ladder identity: mixed into ladder_options_fingerprint(), so TierCache
  /// entries and AssetStore recipes never mix backends.
  EntropyBackend entropy_backend = EntropyBackend::kHuffman;
  /// Expose the placeholder (alt-text substitution) rung below the encode
  /// families. Off by default: with it off the rung space — and therefore
  /// every fingerprint-pinned image-only config — is bit-identical to the
  /// pre-heterogeneous ladder. Mixed into ladder_options_fingerprint().
  bool placeholder_rung = false;
  /// Analytic similarity floor of a bare placeholder box (no alt text). Far
  /// below any practical Qt, so placeholders only enter candidate sets when a
  /// solver is explicitly run with an ultra-low threshold.
  double placeholder_base_similarity = 0.22;
  /// Similarity credit for descriptive alt text, applied as
  /// base + bonus * min(1, alt_chars/80): a described image placeholder
  /// carries more of the original's meaning than an anonymous gray box.
  double placeholder_alt_bonus = 0.16;
};

/// Re-creates the decoded, redisplayed raster of a variant of `asset` — what
/// the user's screen shows (used by the page renderer and QFS).
Raster render_variant(const SourceImage& asset, const ImageVariant& v);

/// The placeholder rung of `asset`: pure arithmetic, no encode, no RNG. The
/// byte cost is the markup of a placeholder box plus the (compressible) alt
/// text; the quality point is the analytic similarity floor from `options`,
/// raised by descriptive alt text. Deterministic in (asset, options,
/// alt_text_chars) only — safe to compute outside the memoized families.
ImageVariant placeholder_variant(const SourceImage& asset, const LadderOptions& options,
                                 std::size_t alt_text_chars);

/// Renders what the placeholder rung shows on screen: a flat quiet box with a
/// thin border and text-like stripes derived from the alt text length —
/// deterministic so renderer-based QFS comparisons are stable.
Raster render_placeholder(const SourceImage& asset, std::size_t alt_text_chars);

/// The rung families a ladder measures eagerly — a solver's move set. RBR/HBS
/// walks the resolution ladder (Algorithm 1), Grid Search lowers quality at
/// the original dimensions (§7.1); the WebP transcode (which Stage-1 reads
/// under either) is always warmed. The set decides only *whether and when* a
/// family is measured: every family is a deterministic function of (asset,
/// options), and a family read outside the set is measured lazily, so results
/// never depend on the set. Defaults to every family.
struct LadderFamilies {
  bool resolution = true;  ///< resolution_family of the standard formats
  bool quality = true;     ///< quality_family of the standard formats

  bool operator==(const LadderFamilies&) const = default;
  /// One bit per family (the asset store mixes it into its recipe).
  std::uint64_t bits() const { return (resolution ? 1u : 0u) | (quality ? 2u : 0u); }
};

/// A portable snapshot of a VariantLadder's memoized families — what the
/// serving asset store shares across sites. Slots are optional per family: a
/// ladder warmed under a partial LadderFamilies leaves the other slots unset
/// (an HBS memo carries no quality family). Adopting a partial memo is sound
/// because an unset slot simply enumerates lazily (and enumeration is
/// deterministic, so a slot filled locally equals the slot a warmer ladder
/// would have shared).
struct VariantMemo {
  std::optional<std::vector<ImageVariant>> res_family[3];
  std::optional<std::vector<ImageVariant>> qual_family[3];
  std::optional<ImageVariant> webp_full;
};

/// Process-wide counters of ladder-measurement encode work (relaxed atomics;
/// safe from any thread). `encoded_bytes` sums encoder output at proxy scale
/// — the "bytes built" a dedup layer avoids. Benches snapshot/reset around a
/// workload to measure build work without instrumenting the codecs.
struct BuildWorkStats {
  std::uint64_t encodes = 0;        ///< variant measurements that ran a codec
  std::uint64_t encoded_bytes = 0;  ///< encoder output bytes (proxy scale)
  std::uint64_t prepares = 0;       ///< lossy forward transforms (Codec::prepare or
                                    ///< the first half of a single-shot encode)
};
BuildWorkStats build_work_stats();
void reset_build_work_stats();

/// Fixed wire-size header constant applied to every page-scale variant.
Bytes wire_header_bytes();

/// Measures one specific (format, scale, quality) variant of `asset`:
/// real encode, page-scale bytes, SSIM after redisplay. Uncached — the
/// baseline transcoders use this for their fixed settings. The context
/// carries the request deadline (checked before the encode) and receives
/// "encode.<fmt>" / "ssim" spans when tracing.
ImageVariant measure_variant(const SourceImage& asset, ImageFormat format, double scale,
                             int quality,
                             const obs::RequestContext& ctx = obs::RequestContext::none(),
                             EntropyBackend backend = EntropyBackend::kHuffman);

/// Lazily enumerated, memoized variant space for one asset.
class VariantLadder {
 public:
  /// `families` picks what warm() and the joint full-resolution pass measure
  /// eagerly; it never changes a measured value.
  VariantLadder(std::shared_ptr<const SourceImage> asset, LadderOptions options = {},
                LadderFamilies families = {});

  const SourceImage& asset() const { return *asset_; }
  const LadderOptions& options() const { return options_; }

  /// The as-shipped variant (scale 1, SSIM 1, shipped bytes).
  ImageVariant original() const;

  // Enumeration entry points all accept a RequestContext: the deadline is
  // checked before each *new* measurement (memoized families return without
  // any check, so a warm ladder never throws), and encode/SSIM spans are
  // emitted when tracing. An enumeration aborted by the deadline memoizes
  // nothing — the next call re-attempts from scratch, so results are
  // independent of when a deadline fired.

  /// Resolution family in `format`: scale 1-g, 1-2g, ... (SSIM-measured).
  /// Stops at min_scale or after its first rung failing meets_ssim(·,
  /// min_ssim), so a ladder built at min_ssim = Qt holds exactly the prefix
  /// the RBR walk reads plus the rung that stops it. Enumerated jointly with
  /// the other standard resolution family (enumerate_resolution).
  const std::vector<ImageVariant>& resolution_family(
      ImageFormat format, const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Quality family at full resolution in `format` (lossy formats only; for
  /// PNG this is empty since PNG is lossless). The rungs share one
  /// Codec::prepare() of the full-resolution raster with webp_full and the
  /// other quality family (enumerate_full_resolution), so the forward DCT
  /// runs once per ladder for an opaque source; outputs are bit-identical to
  /// per-rung single-shot encodes. On a ladder whose families exclude
  /// quality, the first read runs its own pass (webp_full, if already
  /// measured, is not re-measured).
  const std::vector<ImageVariant>& quality_family(
      ImageFormat format, const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Full-resolution WebP transcode at ship quality (lossless WebP for PNG
  /// sources, lossy otherwise). Measured in the joint full-resolution pass,
  /// which also fills the quality families only when the ladder's families
  /// include them; alone, it is one rung.
  const ImageVariant& webp_full(const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Cheapest full-resolution variant (the original, the quality families
  /// and the WebP transcode) that meets_ssim(·, target); nullopt if none
  /// does. Every quality rung counts, not just a prefix, so a quality family
  /// must reach below `target` (min_ssim with slack) for the answer to be
  /// exact. This is the move set of the paper's Grid Search, which
  /// reduces image *quality* "while maintaining their original dimensions"
  /// (§7.1). RBR's resolution ladder is excluded on purpose: the two solvers
  /// searching different spaces is why each can win on some inputs.
  std::optional<ImageVariant> cheapest_fullres_with_ssim_at_least(
      double target, const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Paper Eq. 6: |delta bytes| / |delta SSIM| between the original and the
  /// smallest in-threshold variant of the resolution family (monotone points
  /// only). Higher = more reducible. Requires ssim_threshold >= min_ssim: the
  /// family must reach the threshold.
  double bytes_efficiency(double ssim_threshold,
                          const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Copies every memoized family into a shareable memo (unset slots stay
  /// unset — snapshot never forces enumeration).
  VariantMemo snapshot() const;

  /// Fills this ladder's *unset* slots from `memo`. Locally enumerated
  /// families always win, so adopting can never replace measured data; the
  /// caller is responsible for only adopting memos whose asset content and
  /// options match this ladder's (the asset store keys on exactly that).
  void adopt(const VariantMemo& memo);

  /// Enumerates the WebP transcode, plus both standard formats' quality
  /// families when the set holds quality (one joint full-resolution pass)
  /// and both standard formats' resolution families when it holds
  /// resolution — what the asset store and core::LadderCache::prewarm fill.
  /// Runs the same passes the lazy accessors do, and propagates failures: a
  /// store warming an entry must know the memo holds the whole set before
  /// sharing it.
  void warm(const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Re-creates the decoded, redisplayed raster of a variant (used by the
  /// page renderer; not cached to keep memory bounded).
  Raster render_variant(const ImageVariant& v) const;

 private:
  /// The lossy prepares of one raster within one enumeration pass (see
  /// variants.cc): one forward transform per distinct coefficient-plane set,
  /// freed with the pass.
  class RasterPrepares;

  /// Measures one rung: `raster` is the asset reduced to `scale`. Lossy rungs
  /// encode from `prepares` (prepare/encode_prepared split); lossless ones
  /// (PNG, WebP at quality 100) encode the raster directly.
  ImageVariant measure_rung(ImageFormat format, const Raster& raster, RasterPrepares& prepares,
                            double scale, int quality, const obs::RequestContext& ctx) const;

  /// Shared tail of every rung: redisplayed luma, page-scale bytes, quality
  /// vs the original's cached SSIM reference.
  ImageVariant finish_measurement(const Encoded& enc, ImageFormat format, double scale,
                                  int quality, const obs::RequestContext& ctx) const;

  /// The resolution/quality families the standard set enumerates: the
  /// shipped format, then WebP (one entry when they coincide), plus `extra`
  /// when a caller asks for a family outside that pair.
  std::vector<ImageFormat> family_formats(ImageFormat extra) const;

  /// Fills the unset full-resolution slots in one pass over the original:
  /// webp_full, plus — when `quality` — the quality family of each
  /// family_formats(extra) entry. The slots share the pass's prepares, so an
  /// opaque original runs one forward transform for all of them. Aborted
  /// passes memoize nothing.
  void enumerate_full_resolution(ImageFormat extra, bool quality,
                                 const obs::RequestContext& ctx);

  /// Fills every unset resolution family of family_formats(extra) in one
  /// pass, scale by scale: each scale's reduced raster (and, for an opaque
  /// source, its one lossy prepare) serves every family that has not yet
  /// measured a rung failing the min_ssim floor, then is freed. Aborted passes
  /// memoize nothing.
  void enumerate_resolution(ImageFormat extra, const obs::RequestContext& ctx);

  /// The original's SSIM reference (its luma plus per-window sums), built on
  /// first use: every rung is scored against the same original.
  const SsimReference& reference() const;

  std::shared_ptr<const SourceImage> asset_;
  LadderOptions options_;
  LadderFamilies families_;
  mutable std::optional<SsimReference> reference_;
  std::optional<std::vector<ImageVariant>> res_family_[3];
  std::optional<std::vector<ImageVariant>> qual_family_[3];
  std::optional<ImageVariant> webp_full_;
};

/// A provider of shared VariantMemos keyed by asset *content* — implemented
/// by serving::AssetStore and threaded (as a nullable pointer) through
/// core::LadderCache, so the optimizer layer can consume cross-site dedup
/// without depending on the serving layer. acquire() returns the memo for
/// this asset under these options and families (building and caching it if
/// needed), or nullptr when the source cannot help (store failure, budget
/// exhausted) — callers then fall back to plain lazy enumeration. The memo
/// holds at least `families`, the set the caller's solver reads.
class AssetLadderSource {
 public:
  virtual ~AssetLadderSource() = default;
  virtual std::shared_ptr<const VariantMemo> acquire(
      const std::shared_ptr<const SourceImage>& asset, const LadderOptions& options,
      const LadderFamilies& families, const obs::RequestContext& ctx) = 0;
};

}  // namespace aw4a::imaging
