#include "imaging/variants.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "imaging/resize.h"
#include "imaging/ssim.h"
#include "util/error.h"
#include "util/retry.h"

namespace aw4a::imaging {
namespace {

int raster_dim_for(ImageClass cls, Rng& rng) {
  // Proxy raster sizes per class; kept modest so ladder enumeration stays
  // fast, large enough for meaningful SSIM windows.
  switch (cls) {
    case ImageClass::kPhoto: return static_cast<int>(rng.uniform_int(96, 144));
    case ImageClass::kGradient: return static_cast<int>(rng.uniform_int(64, 112));
    case ImageClass::kLogo: return static_cast<int>(rng.uniform_int(40, 72));
    case ImageClass::kTextBanner: return static_cast<int>(rng.uniform_int(80, 128));
    case ImageClass::kScreenshot: return static_cast<int>(rng.uniform_int(96, 144));
  }
  return 96;
}

int display_dim_for(ImageClass cls, Rng& rng) {
  // CSS-pixel footprint on a mobile page.
  switch (cls) {
    case ImageClass::kPhoto: return static_cast<int>(rng.uniform_int(240, 360));
    case ImageClass::kGradient: return static_cast<int>(rng.uniform_int(180, 360));
    case ImageClass::kLogo: return static_cast<int>(rng.uniform_int(32, 96));
    case ImageClass::kTextBanner: return static_cast<int>(rng.uniform_int(200, 360));
    case ImageClass::kScreenshot: return static_cast<int>(rng.uniform_int(160, 320));
  }
  return 200;
}

std::size_t format_index(ImageFormat f) { return static_cast<std::size_t>(f); }

/// Span name of an encode, keyed by format (span names must be literals).
const char* encode_span_name(ImageFormat format) {
  switch (format) {
    case ImageFormat::kJpeg: return "encode.jpeg";
    case ImageFormat::kPng: return "encode.png";
    case ImageFormat::kWebp: return "encode.webp";
  }
  return "encode";
}

// Every codec invocation funnels through here: a single transient encoder
// fault (crashed worker, injected fault) is retried once before the error
// escapes to the tier-build ladder. The prepare/encode_prepared pair gets
// the same treatment — each fires the codec's fault point per invocation.
Encoded encode_retrying(ImageFormat format, const Raster& raster, int quality,
                        EntropyBackend backend = EntropyBackend::kHuffman) {
  RetryOptions retry;
  retry.max_attempts = 2;
  return retry_transient([&] { return codec_for(format).encode(raster, quality, backend); },
                         retry);
}

/// True when (format, quality) runs the DCT codec — and so a forward
/// transform worth sharing. PNG is lossless; WebP at quality >= 100 is its
/// lossless mode.
bool is_lossy(ImageFormat format, int quality) {
  return format == ImageFormat::kJpeg || (format == ImageFormat::kWebp && quality < 100);
}

Codec::PreparedPtr prepare_retrying(ImageFormat format, const Raster& raster) {
  RetryOptions retry;
  retry.max_attempts = 2;
  return retry_transient([&] { return codec_for(format).prepare(raster); }, retry);
}

Encoded encode_prepared_retrying(ImageFormat format, const Codec::Prepared& prep, int quality,
                                 EntropyBackend backend = EntropyBackend::kHuffman) {
  RetryOptions retry;
  retry.max_attempts = 2;
  return retry_transient(
      [&] { return codec_for(format).encode_prepared(prep, quality, backend); }, retry);
}

// Ladder-measurement work counters (build_work_stats). Bumped at the
// measurement sites, not inside the codec funnels above, so synthesis
// (make_source_image) and page rendering (render_variant) — which reuse the
// funnels but are not "build" work — stay out of the tally.
std::atomic<std::uint64_t> g_encodes{0};
std::atomic<std::uint64_t> g_encoded_bytes{0};
std::atomic<std::uint64_t> g_prepares{0};

void count_encode(const Encoded& enc) {
  g_encodes.fetch_add(1, std::memory_order_relaxed);
  g_encoded_bytes.fetch_add(static_cast<std::uint64_t>(enc.bytes), std::memory_order_relaxed);
}

}  // namespace

BuildWorkStats build_work_stats() {
  return BuildWorkStats{g_encodes.load(std::memory_order_relaxed),
                        g_encoded_bytes.load(std::memory_order_relaxed),
                        g_prepares.load(std::memory_order_relaxed)};
}

void reset_build_work_stats() {
  g_encodes.store(0, std::memory_order_relaxed);
  g_encoded_bytes.store(0, std::memory_order_relaxed);
  g_prepares.store(0, std::memory_order_relaxed);
}

SourceImage make_source_image(Rng& rng, ImageClass cls, Bytes target_wire_bytes) {
  AW4A_EXPECTS(target_wire_bytes > 0);
  SourceImage asset;
  asset.id = rng.next_u64();
  asset.cls = cls;
  const int dim = raster_dim_for(cls, rng);
  const int dim2 = std::max(16, static_cast<int>(dim * rng.uniform(0.6, 1.0)));
  asset.original = synth_image(rng, cls, dim, dim2);
  asset.format = natural_format(asset.original);
  asset.ship_quality = static_cast<int>(rng.uniform_int(80, 92));
  asset.display_w = display_dim_for(cls, rng);
  asset.display_h = std::max(24, static_cast<int>(asset.display_w * rng.uniform(0.5, 1.0)));

  const Encoded shipped = encode_retrying(asset.format, asset.original, asset.ship_quality);
  AW4A_EXPECTS(shipped.bytes > 0);
  // Calibrate on the payload: headers are a fixed real-world constant, not
  // something that scales with the proxy raster.
  const Bytes header = wire_header_bytes();
  const Bytes payload_target = target_wire_bytes > header ? target_wire_bytes - header : 1;
  asset.byte_scale =
      static_cast<double>(payload_target) / static_cast<double>(shipped.payload_bytes());
  asset.wire_bytes = target_wire_bytes;
  // The shipped original *is* the lossy encode; replace the pristine raster
  // with what actually went over the wire so SSIM=1 corresponds to "same as
  // served", matching the paper (it compares against the served page).
  asset.original = shipped.decoded;
  return asset;
}

VariantLadder::VariantLadder(std::shared_ptr<const SourceImage> asset, LadderOptions options,
                             LadderFamilies families)
    : asset_(std::move(asset)), options_(std::move(options)), families_(families) {
  AW4A_EXPECTS(asset_ != nullptr);
  AW4A_EXPECTS(options_.scale_granularity > 0.0 && options_.scale_granularity < 1.0);
  AW4A_EXPECTS(options_.min_scale > 0.0 && options_.min_scale < 1.0);
}

ImageVariant VariantLadder::original() const {
  return ImageVariant{.format = asset_->format,
                      .scale = 1.0,
                      .quality = asset_->ship_quality,
                      .bytes = asset_->wire_bytes,
                      .ssim = 1.0,
                      .is_original = true};
}

Bytes wire_header_bytes() { return 420; }

ImageVariant measure_variant(const SourceImage& asset, ImageFormat format, double scale,
                             int quality, const obs::RequestContext& ctx,
                             EntropyBackend backend) {
  ctx.check("imaging.measure_variant");
  const Raster reduced = [&] {
    AW4A_SPAN(ctx, "imaging.resize");
    return reduce_resolution(asset.original, scale);
  }();
  Encoded enc = [&] {
    AW4A_SPAN(ctx, encode_span_name(format));
    return encode_retrying(format, reduced, quality, backend);
  }();
  if (is_lossy(format, quality)) g_prepares.fetch_add(1, std::memory_order_relaxed);
  count_encode(enc);
  const Raster shown = redisplay(enc.decoded, asset.original.width(), asset.original.height());
  ImageVariant v;
  v.format = format;
  v.scale = scale;
  v.quality = quality;
  v.bytes = wire_header_bytes() +
            static_cast<Bytes>(std::llround(static_cast<double>(enc.payload_bytes()) *
                                            asset.byte_scale));
  {
    AW4A_SPAN(ctx, "ssim");
    v.ssim = ssim(asset.original, shown);
  }
  return v;
}

// Every lossy forward transform of one raster in one enumeration pass goes
// through here. prepare_lossy() depends on the format only through kept
// alpha, so for an opaque raster the JPEG and WebP coefficient planes are
// identical (codec.h: a lossy Prepared of an opaque raster is codec-neutral)
// and the first format to ask prepares for both; a raster with alpha gets
// one prepare per lossy format. Prepares are made at the first rung that
// needs them (an all-skipped family pays nothing) and die with the pass —
// the ladder never retains coefficient planes.
class VariantLadder::RasterPrepares {
 public:
  explicit RasterPrepares(const Raster& raster)
      : raster_(raster), opaque_(!raster.has_alpha()) {}

  const Codec::Prepared& for_format(ImageFormat format, const obs::RequestContext& ctx) {
    Codec::PreparedPtr& slot = slots_[opaque_ ? 0 : format_index(format)];
    if (!slot) {
      AW4A_SPAN(ctx, "encode.prepare");
      slot = prepare_retrying(format, raster_);
      g_prepares.fetch_add(1, std::memory_order_relaxed);
    }
    return *slot;
  }

 private:
  const Raster& raster_;
  bool opaque_;
  Codec::PreparedPtr slots_[3];
};

const SsimReference& VariantLadder::reference() const {
  if (!reference_) reference_.emplace(luma_plane(asset_->original));
  return *reference_;
}

ImageVariant VariantLadder::finish_measurement(const Encoded& enc, ImageFormat format,
                                               double scale, int quality,
                                               const obs::RequestContext& ctx) const {
  count_encode(enc);
  // What the screen shows, straight to luma: full-resolution rungs skip the
  // resample, reduced ones never materialize the redisplayed RGBA raster.
  const PlaneF shown = [&] {
    AW4A_SPAN(ctx, "imaging.redisplay");
    return redisplay_luma(enc.decoded, asset_->original.width(), asset_->original.height());
  }();
  ImageVariant v;
  v.format = format;
  v.scale = scale;
  v.quality = quality;
  v.bytes = wire_header_bytes() +
            static_cast<Bytes>(std::llround(static_cast<double>(enc.payload_bytes()) *
                                            asset_->byte_scale));
  {
    AW4A_SPAN(ctx, "ssim");
    v.ssim = options_.metric == QualityMetric::kMsSsim ? ms_ssim(reference().luma(), shown)
                                                       : reference().score(shown);
  }
  return v;
}

ImageVariant VariantLadder::measure_rung(ImageFormat format, const Raster& raster,
                                         RasterPrepares& prepares, double scale, int quality,
                                         const obs::RequestContext& ctx) const {
  ctx.check("imaging.measure");
  Encoded enc;
  if (is_lossy(format, quality)) {
    const Codec::Prepared& prep = prepares.for_format(format, ctx);
    AW4A_SPAN(ctx, encode_span_name(format));
    enc = encode_prepared_retrying(format, prep, quality, options_.entropy_backend);
  } else {
    AW4A_SPAN(ctx, encode_span_name(format));
    enc = encode_retrying(format, raster, quality, options_.entropy_backend);
  }
  return finish_measurement(enc, format, scale, quality, ctx);
}

std::vector<ImageFormat> VariantLadder::family_formats(ImageFormat extra) const {
  std::vector<ImageFormat> formats = {asset_->format};
  for (const ImageFormat f : {ImageFormat::kWebp, extra}) {
    if (std::find(formats.begin(), formats.end(), f) == formats.end()) formats.push_back(f);
  }
  return formats;
}

void VariantLadder::enumerate_full_resolution(ImageFormat extra, bool quality,
                                              const obs::RequestContext& ctx) {
  // Enumerated into locals first: a deadline or fault thrown mid-pass leaves
  // every slot unset, so a later call re-enumerates the full pass instead of
  // serving a truncated family.
  RasterPrepares prepares(asset_->original);
  std::optional<ImageVariant> webp = webp_full_;
  if (!webp) {
    const int q = asset_->format == ImageFormat::kPng ? 100 : asset_->ship_quality;
    webp = measure_rung(ImageFormat::kWebp, asset_->original, prepares, 1.0, q, ctx);
    // Full-fidelity settings in a different container: a transcode rung, not
    // a quality rung (kind is informational — bytes/ssim drive selection).
    webp->kind = DegradationKind::kTranscode;
  }
  std::optional<std::vector<ImageVariant>> families[3];
  const std::vector<ImageFormat> formats =
      quality ? family_formats(extra) : std::vector<ImageFormat>{};
  for (const ImageFormat format : formats) {
    if (qual_family_[format_index(format)]) continue;
    std::vector<ImageVariant>& family = families[format_index(format)].emplace();
    if (format == ImageFormat::kPng) continue;  // PNG is lossless: no quality knob
    for (const int q : options_.quality_steps) {
      if (q >= asset_->ship_quality) continue;  // upcoding never helps
      family.push_back(measure_rung(format, asset_->original, prepares, 1.0, q, ctx));
      if (family.back().ssim < options_.min_ssim) break;
    }
  }
  webp_full_ = std::move(webp);
  for (std::size_t i = 0; i < 3; ++i) {
    if (families[i]) qual_family_[i] = std::move(families[i]);
  }
}

void VariantLadder::enumerate_resolution(ImageFormat extra, const obs::RequestContext& ctx) {
  struct Pending {
    ImageFormat format;
    std::vector<ImageVariant> family;
    bool done = false;  ///< a below-floor point was measured
  };
  std::vector<Pending> pending;
  for (const ImageFormat format : family_formats(extra)) {
    if (!res_family_[format_index(format)]) pending.push_back({format, {}});
  }
  for (double s = 1.0 - options_.scale_granularity; s >= options_.min_scale - 1e-9;
       s -= options_.scale_granularity) {
    if (std::all_of(pending.begin(), pending.end(), [](const Pending& p) { return p.done; })) {
      break;
    }
    const Raster reduced = [&] {
      AW4A_SPAN(ctx, "imaging.resize");
      return reduce_resolution(asset_->original, s);
    }();
    RasterPrepares prepares(reduced);
    for (Pending& p : pending) {
      if (p.done) continue;
      p.family.push_back(
          measure_rung(p.format, reduced, prepares, s, asset_->ship_quality, ctx));
      // Keep one below-floor point as a sentinel, then stop this family.
      p.done = p.family.back().ssim < options_.min_ssim;
    }
  }
  for (Pending& p : pending) res_family_[format_index(p.format)] = std::move(p.family);
}

const std::vector<ImageVariant>& VariantLadder::resolution_family(
    ImageFormat format, const obs::RequestContext& ctx) {
  auto& slot = res_family_[format_index(format)];
  if (!slot) enumerate_resolution(format, ctx);
  return *slot;
}

const std::vector<ImageVariant>& VariantLadder::quality_family(ImageFormat format,
                                                               const obs::RequestContext& ctx) {
  auto& slot = qual_family_[format_index(format)];
  if (!slot) enumerate_full_resolution(format, /*quality=*/true, ctx);
  return *slot;
}

const ImageVariant& VariantLadder::webp_full(const obs::RequestContext& ctx) {
  if (!webp_full_) enumerate_full_resolution(asset_->format, families_.quality, ctx);
  return *webp_full_;
}

std::optional<ImageVariant> VariantLadder::cheapest_with_ssim_at_least(
    double target, const obs::RequestContext& ctx) {
  std::optional<ImageVariant> best = original();
  auto consider = [&](const ImageVariant& v) {
    if (v.ssim + 1e-12 >= target && (!best || v.bytes < best->bytes)) best = v;
  };
  consider(webp_full(ctx));
  for (const auto& v : resolution_family(asset_->format, ctx)) consider(v);
  for (const auto& v : resolution_family(ImageFormat::kWebp, ctx)) consider(v);
  for (const auto& v : quality_family(asset_->format, ctx)) consider(v);
  for (const auto& v : quality_family(ImageFormat::kWebp, ctx)) consider(v);
  if (best && best->ssim + 1e-12 < target) return std::nullopt;  // original below target?!
  return best;
}

std::optional<ImageVariant> VariantLadder::cheapest_fullres_with_ssim_at_least(
    double target, const obs::RequestContext& ctx) {
  std::optional<ImageVariant> best = original();
  auto consider = [&](const ImageVariant& v) {
    if (v.ssim + 1e-12 >= target && (!best || v.bytes < best->bytes)) best = v;
  };
  consider(webp_full(ctx));
  for (const auto& v : quality_family(asset_->format, ctx)) consider(v);
  for (const auto& v : quality_family(ImageFormat::kWebp, ctx)) consider(v);
  if (best && best->ssim + 1e-12 < target) return std::nullopt;
  return best;
}

double VariantLadder::bytes_efficiency(double ssim_threshold, const obs::RequestContext& ctx) {
  // Walk the resolution family of the shipped format down to the threshold;
  // use only points where both bytes and SSIM decreased (the paper considers
  // only the monotone part of the curve).
  const ImageVariant base = original();
  const ImageVariant* deepest = nullptr;
  for (const auto& v : resolution_family(asset_->format, ctx)) {
    if (v.ssim + 1e-12 < ssim_threshold) break;
    if (v.bytes < base.bytes && v.ssim < base.ssim) deepest = &v;
  }
  if (deepest == nullptr) return 0.0;
  const double dbytes = static_cast<double>(base.bytes - deepest->bytes);
  const double dssim = base.ssim - deepest->ssim;
  if (dssim <= 1e-9) {
    // Bytes shrink with no measurable SSIM cost: maximal reducibility.
    return dbytes / 1e-9;
  }
  return dbytes / dssim;
}

VariantMemo VariantLadder::snapshot() const {
  VariantMemo memo;
  for (std::size_t i = 0; i < 3; ++i) {
    memo.res_family[i] = res_family_[i];
    memo.qual_family[i] = qual_family_[i];
  }
  memo.webp_full = webp_full_;
  return memo;
}

void VariantLadder::adopt(const VariantMemo& memo) {
  for (std::size_t i = 0; i < 3; ++i) {
    if (!res_family_[i] && memo.res_family[i]) res_family_[i] = memo.res_family[i];
    if (!qual_family_[i] && memo.qual_family[i]) qual_family_[i] = memo.qual_family[i];
  }
  if (!webp_full_ && memo.webp_full) webp_full_ = memo.webp_full;
}

void VariantLadder::warm(const obs::RequestContext& ctx) {
  enumerate_full_resolution(asset_->format, families_.quality, ctx);
  if (families_.resolution) enumerate_resolution(asset_->format, ctx);
}

std::vector<ImageVariant> VariantLadder::all_variants() const {
  std::vector<ImageVariant> out;
  out.push_back(original());
  for (const auto& family : res_family_) {
    if (family) out.insert(out.end(), family->begin(), family->end());
  }
  for (const auto& family : qual_family_) {
    if (family) out.insert(out.end(), family->begin(), family->end());
  }
  if (webp_full_) out.push_back(*webp_full_);
  return out;
}

Raster VariantLadder::render_variant(const ImageVariant& v) const {
  return imaging::render_variant(*asset_, v);
}

ImageVariant placeholder_variant(const SourceImage& asset, const LadderOptions& options,
                                 std::size_t alt_text_chars) {
  // Pure arithmetic: no encode, no RNG, no memoization needed. The wire cost
  // is the placeholder markup (a sized box + border) plus the alt text, which
  // compresses like prose (~2.6x); both are page-scale bytes already, so
  // byte_scale does not apply.
  constexpr Bytes kMarkupBytes = 54;  // <div class=ph style="w;h"></div> etc.
  const Bytes alt_bytes =
      static_cast<Bytes>(std::llround(static_cast<double>(alt_text_chars) / 2.6));
  ImageVariant v;
  v.format = asset.format;
  v.scale = 0.0;
  v.quality = 0;
  v.kind = DegradationKind::kPlaceholder;
  v.alt_chars = static_cast<std::uint32_t>(std::min<std::size_t>(alt_text_chars, 1u << 20));
  v.bytes = kMarkupBytes + alt_bytes;
  const double described =
      std::min(1.0, static_cast<double>(alt_text_chars) / 80.0);
  v.ssim = std::min(1.0, options.placeholder_base_similarity +
                             options.placeholder_alt_bonus * described);
  return v;
}

Raster render_placeholder(const SourceImage& asset, std::size_t alt_text_chars) {
  // A quiet light box with a darker border and text-like stripes: what a
  // browser shows for <img alt=...> without the bytes. Deterministic in
  // (dims, alt length) so QFS screenshot comparisons are stable.
  const int w = asset.original.width();
  const int h = asset.original.height();
  Raster box(w, h, Pixel{236, 238, 240, 255});
  const Pixel border{176, 180, 186, 255};
  for (int x = 0; x < w; ++x) {
    box.at(x, 0) = border;
    box.at(x, h - 1) = border;
  }
  for (int y = 0; y < h; ++y) {
    box.at(0, y) = border;
    box.at(w - 1, y) = border;
  }
  // One stripe per ~24 alt chars, capped to what fits; a bare placeholder
  // (no alt text) stays an empty box.
  const int stripes = static_cast<int>(
      std::min<std::size_t>(alt_text_chars / 24, static_cast<std::size_t>(h / 6)));
  const Pixel ink{120, 126, 134, 255};
  for (int s = 0; s < stripes; ++s) {
    const int y = 3 + s * 6;
    if (y + 1 >= h - 1) break;
    const int len = std::max(4, w - 6 - (s % 3) * (w / 8));
    for (int x = 3; x < 3 + len && x < w - 1; ++x) {
      box.at(x, y) = ink;
      box.at(x, y + 1) = ink;
    }
  }
  return box;
}

Raster render_variant(const SourceImage& asset, const ImageVariant& v) {
  if (v.is_original) return asset.original;
  if (v.kind == DegradationKind::kPlaceholder) {
    return render_placeholder(asset, v.alt_chars);
  }
  const Raster reduced = reduce_resolution(asset.original, v.scale);
  // Entropy coding is lossless, so the decoded raster is identical under
  // either backend; rendering always takes the cheap Huffman path even for
  // ladders measured with rANS.
  const Encoded enc = encode_retrying(v.format, reduced, v.quality);
  return redisplay(enc.decoded, asset.original.width(), asset.original.height());
}

}  // namespace aw4a::imaging
