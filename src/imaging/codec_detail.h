// Shared internals of the lossy (DCT) codecs and the lossless filter path.
// Not part of the public API; included only by the codec .cc files and tests
// that validate the cost model.
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/codec.h"
#include "imaging/dct.h"
#include "imaging/raster.h"

namespace aw4a::imaging::detail {

/// Knobs distinguishing the jpeg-like and webp-like encoders.
struct LossyParams {
  ImageFormat format;
  /// Multiplier on the entropy-coded payload: 1.0 for JPEG's Huffman coding,
  /// <1 for WebP's arithmetic coder + intra prediction (calibrated to the
  /// commonly cited ~25-34% WebP-over-JPEG saving).
  double payload_scale = 1.0;
  /// Scale applied to the high-frequency half of the quant tables (<1 keeps
  /// more detail per byte, as WebP's loop filter effectively does).
  double hf_quant_scale = 1.0;
  /// Fixed container/header overhead in bytes.
  Bytes header_bytes = 0;
  /// Whether the format carries an alpha plane (encoded losslessly).
  bool alpha = false;
  /// Which entropy coder prices (kHuffman) or produces (kRans) the payload.
  EntropyBackend entropy = EntropyBackend::kHuffman;
};

/// The lossy-family knobs for a format (entropy left at kHuffman; callers
/// overlay the requested backend). Only kJpeg and kWebp are lossy.
LossyParams lossy_params_for(ImageFormat format);

/// Calibration of solver-facing byte estimates across entropy backends.
/// kRansVsHuffman is the measured mean ratio of real rANS payload bytes to
/// the Huffman-model payload estimate over the synth corpus x the default
/// quality ladder; ImagingAnsTest.EntropyCostCalibration pins it with a
/// tolerance band so drift in either coder shows up in CI.
struct EntropyCost {
  static constexpr double kRansVsHuffman = 0.86;

  static double payload_multiplier(EntropyBackend backend) {
    return backend == EntropyBackend::kRans ? kRansVsHuffman : 1.0;
  }
};

/// The quality-independent half of a lossy encode: YCbCr conversion, 4:2:0
/// subsampling, and the forward DCT of all three planes — plus the alpha
/// plane cost, which quality does not touch either. Everything a quality
/// rung needs beyond this is re-quantization and entropy coding of the
/// coefficient blocks, so a ladder of N rungs pays the transform once
/// instead of N times.
struct PreparedLossy {
  int width = 0;
  int height = 0;
  /// The source raster had no pixel with alpha < 255. Such planes are the
  /// same for every LossyParams (kept alpha is the only format dependence),
  /// which is what lets one prepare serve both lossy codecs.
  bool opaque = false;
  bool keep_alpha = false;
  CoeffPlane luma;
  CoeffPlane cb;  ///< subsampled 2x
  CoeffPlane cr;  ///< subsampled 2x
  Bytes alpha_cost = 0;                ///< alpha_plane_cost() when keep_alpha
  std::vector<std::uint8_t> alpha;     ///< original alpha bytes when keep_alpha
};

/// Runs the quality-independent half of lossy_encode(). Only `params.alpha`
/// affects the result (it selects composite-over-white vs. kept alpha), and
/// only when the raster has alpha; the quality-dependent knobs are consumed
/// by lossy_encode_prepared(), which accepts any planes whose kept alpha
/// matches its own params.
PreparedLossy prepare_lossy(const Raster& img, const LossyParams& params);

/// The concrete Codec::Prepared of the lossy codecs (jpeg and webp .cc files
/// downcast to this).
struct LossyPreparedImage final : Codec::Prepared {
  PreparedLossy planes;
  /// Retained only by WebP, whose quality >= 100 mode is the lossless
  /// encoder and needs pixels, not coefficients. Empty for JPEG.
  Raster raster;
};

/// The per-quality tail: scaled quantization tables, entropy-cost
/// accumulation, and the dequantize + inverse DCT reconstruction. Encoding
/// via prepare_lossy() + this function is bit-identical to lossy_encode() —
/// lossy_encode() IS this composition.
Encoded lossy_encode_prepared(const PreparedLossy& prep, int quality,
                              const LossyParams& params);

/// Full encode: 4:2:0 YCbCr DCT quantization with an optimal-Huffman entropy
/// cost estimate. Returns wire bytes and the decoded raster.
Encoded lossy_encode(const Raster& img, int quality, const LossyParams& params);

/// The quantized coefficient levels of every plane at one quality rung —
/// exactly what the entropy backends code. Blocks in row-major order, 64
/// levels each in natural (row-major pixel) order; chroma dims are the
/// subsampled plane's. This is both the encoder's capture (quantize_levels)
/// and the decoder's output (rans_parse_payload), so round-trip tests can
/// compare coefficient blocks bit-exactly without touching pixels.
struct DecodedLossy {
  ImageFormat format = ImageFormat::kJpeg;
  int quality = 0;
  int width = 0;   ///< luma pixel dims
  int height = 0;
  std::vector<std::int16_t> luma;
  std::vector<std::int16_t> cb;
  std::vector<std::int16_t> cr;
};

/// Quantizes `prep` at `quality` and returns the levels (no entropy work).
DecodedLossy quantize_levels(const PreparedLossy& prep, int quality,
                             const LossyParams& params);

/// Entropy-decodes a kRans payload blob to levels. Throws aw4a::Error on
/// truncated or corrupt input; never reads out of bounds.
DecodedLossy rans_parse_payload(const std::uint8_t* data, std::size_t size);

/// The production decode of a kRans payload blob: entropy decode, sparse
/// dequantization, and masked inverse DCT fused into one pass per plane —
/// no levels buffer is materialized, DC-only blocks go straight to the
/// DC-only IDCT. Bit-identical to reconstruct_lossy(rans_parse_payload(...))
/// by construction — pinned by ImagingAnsTest — with the same accept/reject
/// behavior on corrupt blobs.
/// lossy_decode() is this function.
Raster rans_decode_fused(const std::uint8_t* data, std::size_t size);

/// Dequantize + masked inverse DCT + chroma upsample + color conversion —
/// the decode-side reconstruction both backends share (the Huffman backend
/// has no bitstream to parse, so this alone is its decode path; see
/// bench_perf_pipeline's decode_ladder_huffman). Bit-identical to the
/// `Encoded.decoded` the encoder produced for the same levels.
Raster reconstruct_lossy(const DecodedLossy& levels);

/// PNG-style per-row filtering (best-of None/Sub/Up/Average/Paeth by the
/// minimum-sum-of-absolute-differences heuristic); returns the filtered byte
/// stream that the LZ back end compresses.
std::vector<std::uint8_t> png_filter_stream(const Raster& img, bool include_alpha);

/// Filtered + LZ cost of just the alpha channel (the WebP alpha plane).
Bytes alpha_plane_cost(const Raster& img);

}  // namespace aw4a::imaging::detail
