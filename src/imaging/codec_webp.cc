// webp-like codec: the same DCT pipeline with a stronger entropy back end
// (modeling VP8's arithmetic coding and intra prediction; calibrated to the
// commonly reported ~25-35% saving over JPEG at equal quality), slightly
// flatter high-frequency quantization, and a losslessly coded alpha plane.
#include <memory>

#include "imaging/codec.h"
#include "imaging/codec_detail.h"
#include "net/compress.h"
#include "util/error.h"
#include "util/fault.h"

namespace aw4a::imaging {
namespace {

detail::LossyParams webp_params(EntropyBackend backend = EntropyBackend::kHuffman) {
  detail::LossyParams params = detail::lossy_params_for(ImageFormat::kWebp);
  params.entropy = backend;
  return params;
}

}  // namespace

Encoded webp_encode(const Raster& img, int quality, EntropyBackend backend) {
  AW4A_FAULT_POINT("codec.webp.encode");
  return detail::lossy_encode(img, quality, webp_params(backend));
}

Encoded webp_lossless_encode(const Raster& img) {
  AW4A_FAULT_POINT("codec.webp.encode");
  // VP8L's predictors + color-cache beat PNG's five filters by ~20% on the
  // same content; model that as a scale on the filtered-LZ cost.
  const auto stream = detail::png_filter_stream(img, img.has_alpha());
  Encoded out;
  out.format = ImageFormat::kWebp;
  out.quality = 100;
  out.header_bytes = 28;
  out.bytes =
      static_cast<Bytes>(static_cast<double>(net::gzip_size(stream)) * 0.8) + out.header_bytes;
  out.decoded = img;
  return out;
}

Codec::PreparedPtr webp_prepare(const Raster& img) {
  AW4A_FAULT_POINT("codec.webp.encode");
  auto prep = std::make_shared<detail::LossyPreparedImage>();
  prep->planes = detail::prepare_lossy(img, webp_params());
  // Quality >= 100 selects the lossless encoder, which works on pixels, so
  // the prepared form keeps them alongside the coefficients.
  prep->raster = img;
  return prep;
}

Encoded webp_encode_prepared(const Codec::Prepared& prep, int quality,
                             EntropyBackend backend) {
  const auto* lossy = dynamic_cast<const detail::LossyPreparedImage*>(&prep);
  AW4A_EXPECTS(lossy != nullptr);
  if (quality >= 100) {
    AW4A_EXPECTS(!lossy->raster.empty());  // only webp_prepare() keeps pixels
    return webp_lossless_encode(lossy->raster);
  }
  AW4A_FAULT_POINT("codec.webp.encode");
  return detail::lossy_encode_prepared(lossy->planes, quality, webp_params(backend));
}

}  // namespace aw4a::imaging
