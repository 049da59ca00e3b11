// Image codec interface.
//
// Three codecs model the formats the paper's pipeline manipulates:
//   jpeg-like  lossy, DCT + quantization, no alpha, entropy-cost back end
//   png-like   lossless, per-row filtering + LZ cost (supports alpha)
//   webp-like  lossy and lossless modes; better entropy back end than JPEG
//              and alpha support, mirroring why the paper transcodes PNG->WebP
//
// Encoding returns both the output size in bytes and the decoded raster, so
// SSIM can be computed against the original — exactly the data the optimizer
// needs to build a variant ladder.
//
// Quality ladders use the factored entry points: prepare() runs the
// quality-independent work (color conversion + forward DCT for the lossy
// codecs) once, and encode_prepared() derives each rung from the shared
// coefficient blocks. prepare()+encode_prepared() is bit-identical to
// encode() — the single-shot path is literally that composition — so ladder
// enumeration and one-off encodes can never diverge.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "imaging/raster.h"
#include "util/bytes.h"

namespace aw4a::imaging {

enum class ImageFormat { kJpeg, kPng, kWebp };

const char* to_string(ImageFormat f);

/// Entropy back end of the lossy codec family (DESIGN.md §13). kHuffman is
/// the original analytic optimal-Huffman cost model (no bitstream exists);
/// kRans produces a real, decodable interleaved-rANS payload whose measured
/// size replaces the model. Entropy coding is lossless, so the decoded
/// raster — and therefore SSIM — is identical under both; only bytes and
/// CPU differ. Lossless codecs (PNG, WebP q>=100) ignore the choice.
enum class EntropyBackend : std::uint8_t { kHuffman = 0, kRans = 1 };

const char* to_string(EntropyBackend b);

/// Result of an encode: wire size plus what the user would see.
struct Encoded {
  ImageFormat format = ImageFormat::kJpeg;
  int quality = 100;    ///< 1..100 for lossy; 100 for lossless
  Bytes bytes = 0;      ///< total: header + payload
  Bytes header_bytes = 0;  ///< fixed container overhead (excluded when the
                           ///< variant ladder scales proxy rasters up to
                           ///< page-scale wire sizes)
  Raster decoded;
  EntropyBackend entropy = EntropyBackend::kHuffman;
  /// kRans only: the self-contained payload blob (tables + states + streams,
  /// DESIGN.md §13) that lossy_decode() round-trips bit-exactly back to
  /// `decoded`. Empty for kHuffman and the lossless codecs. Stored raw
  /// (pre-payload_scale); `bytes`/`header_bytes` carry the scaled accounting.
  std::vector<std::uint8_t> payload;

  Bytes payload_bytes() const { return bytes > header_bytes ? bytes - header_bytes : 1; }
};

/// Common interface so the optimizer can treat formats uniformly.
class Codec {
 public:
  /// Opaque result of the quality-independent half of an encode (forward
  /// DCT coefficient planes for the lossy codecs, the raster itself for
  /// lossless ones). Obtained from prepare(), consumed by encode_prepared()
  /// of the SAME codec.
  class Prepared {
   public:
    virtual ~Prepared() = default;
  };
  using PreparedPtr = std::shared_ptr<const Prepared>;

  virtual ~Codec() = default;

  virtual ImageFormat format() const = 0;

  /// True if the codec can represent transparency.
  virtual bool supports_alpha() const = 0;

  /// Encodes at `quality` in [1, 100] (ignored by lossless codecs).
  virtual Encoded encode(const Raster& img, int quality,
                         EntropyBackend backend = EntropyBackend::kHuffman) const = 0;

  /// Runs the quality-independent encode work once. The default
  /// implementation holds a copy of the raster, making encode_prepared()
  /// equivalent to encode() for codecs with nothing to factor (PNG).
  /// Backend-independent: the entropy coder is downstream of the DCT.
  virtual PreparedPtr prepare(const Raster& img) const;

  /// Encodes one quality rung from a prepare() result. Bit-identical to
  /// encode(img, quality, backend) on the raster prepare() was given. The
  /// lossy codecs' prepare() of an *opaque* raster is codec-neutral: the
  /// forward transform depends on the format only through kept alpha, so
  /// JPEG and WebP (below quality 100, its lossless mode) each accept the
  /// other's result, bit-identically to their own.
  virtual Encoded encode_prepared(const Prepared& prep, int quality,
                                  EntropyBackend backend = EntropyBackend::kHuffman) const;
};

/// Returns the singleton codec for a format.
const Codec& codec_for(ImageFormat f);

/// Free-function encoders (the Codec singletons delegate to these).
Encoded jpeg_encode(const Raster& img, int quality,
                    EntropyBackend backend = EntropyBackend::kHuffman);
Encoded png_encode(const Raster& img);                  ///< lossless
Encoded webp_encode(const Raster& img, int quality,     ///< lossy + alpha plane
                    EntropyBackend backend = EntropyBackend::kHuffman);
Encoded webp_lossless_encode(const Raster& img);

/// Factored lossy entry points (the Codec singletons delegate to these).
/// Each fires the same "codec.<fmt>.encode" fault point as the single-shot
/// encoder, so retry and fault-injection behavior is uniform per invocation.
Codec::PreparedPtr jpeg_prepare(const Raster& img);
Encoded jpeg_encode_prepared(const Codec::Prepared& prep, int quality,
                             EntropyBackend backend = EntropyBackend::kHuffman);
Codec::PreparedPtr webp_prepare(const Raster& img);
Encoded webp_encode_prepared(const Codec::Prepared& prep, int quality,
                             EntropyBackend backend = EntropyBackend::kHuffman);

/// Decodes an EntropyBackend::kRans payload blob back to the raster. The
/// result is bit-identical to the `Encoded.decoded` the encoder returned
/// (alpha-less formats; a kept WebP alpha plane is cost-modeled, not coded,
/// so it decodes opaque). Throws aw4a::Error on truncated/corrupt input —
/// never reads out of bounds.
Raster lossy_decode(const std::vector<std::uint8_t>& payload);

/// Picks a plausible original format for a synthesized image: logos/icons and
/// anything with alpha ship as PNG, photographic content as JPEG.
ImageFormat natural_format(const Raster& img);

}  // namespace aw4a::imaging
