// Tests of the interleaved rANS entropy backend (DESIGN.md §13): the generic
// coder in imaging/ans.h, the lossy-codec payload round trip, the
// Huffman-vs-rANS equivalence guarantees, and the EntropyCost calibration.
#include "imaging/ans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/pipeline.h"
#include "imaging/codec.h"
#include "imaging/codec_detail.h"
#include "imaging/fingerprint.h"
#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "imaging/variants.h"
#include "serving/tier_cache.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

// ---------------------------------------------------------------------------
// Generic coder: tables
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> skewed_counts(Rng& rng, int n, double decay) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(n), 0);
  double weight = 1.0;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(i)] =
        static_cast<std::uint64_t>(rng.uniform(0.0, 1000.0 * weight));
    weight *= decay;
  }
  return counts;
}

void expect_table_invariants(const ans::FreqTable& table) {
  ASSERT_FALSE(table.symbols.empty());
  ASSERT_EQ(table.symbols.size(), table.freqs.size());
  ASSERT_EQ(table.symbols.size(), table.cum.size());
  std::uint32_t total = 0;
  for (std::size_t e = 0; e < table.symbols.size(); ++e) {
    if (e > 0) {
      EXPECT_LT(table.symbols[e - 1], table.symbols[e]);
    }
    EXPECT_LE(table.symbols[e], ans::kEscapeSymbol);
    EXPECT_GE(table.freqs[e], 1u);
    EXPECT_EQ(table.cum[e], total);
    total += table.freqs[e];
  }
  EXPECT_EQ(total, ans::kScaleTotal);
  // Every slot carries the packed (freq, bias, symbol) of the entry covering
  // it, so arbitrary decoder states always resolve to *some* symbol (no
  // out-of-bounds lookups ever). ESCAPE is recognized by slot position.
  ASSERT_EQ(table.packed.size(), ans::kScaleTotal);
  EXPECT_EQ(table.esc_start,
            table.has_escape() ? table.cum.back() : ans::kScaleTotal);
  for (std::size_t e = 0; e < table.symbols.size(); ++e) {
    for (std::uint32_t slot = table.cum[e];
         slot < static_cast<std::uint32_t>(table.cum[e]) + table.freqs[e]; ++slot) {
      EXPECT_EQ(table.packed[slot],
                ans::pack_slot(table.freqs[e], slot - table.cum[e], table.symbols[e]))
          << "slot=" << slot;
    }
  }
  // Encoder reciprocals are exact stand-ins for division by freq.
  ASSERT_EQ(table.recip.size(), table.freqs.size());
  for (std::size_t e = 0; e < table.freqs.size(); ++e) {
    const std::uint64_t f = table.freqs[e];
    EXPECT_EQ(table.recip[e], ((std::uint64_t{1} << ans::kRecipShift) + f - 1) / f);
  }
  for (int s = 0; s <= 256; ++s) {
    const bool present =
        std::find(table.symbols.begin(), table.symbols.end(),
                  static_cast<std::uint16_t>(s)) != table.symbols.end();
    EXPECT_EQ(table.has(s), present);
  }
}

TEST(AnsTable, NormalizationInvariants) {
  Rng rng(7);
  for (const double decay : {1.0, 0.9, 0.5}) {
    for (const int n : {4, 16, 200, 256}) {
      const std::vector<std::uint64_t> counts = skewed_counts(rng, n, decay);
      expect_table_invariants(ans::build_table(counts.data(), n));
    }
  }
}

TEST(AnsTable, SingleSymbolCollapsesToOneEntry) {
  std::vector<std::uint64_t> counts(16, 0);
  counts[3] = 12345;
  const ans::FreqTable table = ans::build_table(counts.data(), 16);
  expect_table_invariants(table);
  ASSERT_TRUE(table.has(3));
  // The lone symbol owns (nearly) the whole scale; coding it is ~free.
  const std::uint16_t e =
      static_cast<std::uint16_t>(table.entry_of[3] - 1);
  EXPECT_GE(table.freqs[e], ans::kScaleTotal - 16);
}

TEST(AnsTable, AllZeroCountsBuildPureEscapeTable) {
  const std::vector<std::uint64_t> counts(256, 0);
  const ans::FreqTable table = ans::build_table(counts.data(), 256);
  expect_table_invariants(table);
  ASSERT_TRUE(table.has_escape());
  EXPECT_EQ(table.symbols.size(), 1u);
  EXPECT_EQ(table.freqs[0], ans::kScaleTotal);
}

TEST(AnsTable, SerializationRoundTrip) {
  Rng rng(11);
  for (const double decay : {1.0, 0.7}) {
    for (const int n : {3, 64, 256}) {
      const std::vector<std::uint64_t> counts = skewed_counts(rng, n, decay);
      const ans::FreqTable table = ans::build_table(counts.data(), n);
      std::vector<std::uint8_t> blob;
      ans::serialize_table(table, blob);
      EXPECT_EQ(blob.size(), ans::serialized_table_bytes(table));
      ans::ByteReader in(blob.data(), blob.size());
      const ans::FreqTable back = ans::deserialize_table(in);
      EXPECT_EQ(in.remaining(), 0u);
      EXPECT_EQ(back.symbols, table.symbols);
      EXPECT_EQ(back.freqs, table.freqs);
      expect_table_invariants(back);
    }
  }
}

// The escape-threshold sweep as it ran before candidates were priced
// unfinalized: every candidate is a complete, finalize()d table. Kept here
// as the oracle that build_table()'s winner-only finalize must match byte for
// byte (the normalization is copied verbatim: largest-remainder, ties by
// entry index).
ans::FreqTable finalized_sweep_oracle(const std::uint64_t* counts, int n_symbols) {
  auto normalize = [](const std::vector<std::uint64_t>& kept) {
    std::uint64_t total = 0;
    for (const std::uint64_t c : kept) total += c;
    std::vector<std::uint32_t> freqs(kept.size());
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      freqs[i] = static_cast<std::uint32_t>(
          std::max<std::uint64_t>(1, (kept[i] * ans::kScaleTotal) / total));
      assigned += freqs[i];
    }
    while (assigned < static_cast<std::int64_t>(ans::kScaleTotal)) {
      std::size_t best = 0;
      double best_gain = -1.0;
      for (std::size_t i = 0; i < kept.size(); ++i) {
        const double gain = static_cast<double>(kept[i]) / freqs[i];
        if (gain > best_gain) {
          best_gain = gain;
          best = i;
        }
      }
      ++freqs[best];
      ++assigned;
    }
    while (assigned > static_cast<std::int64_t>(ans::kScaleTotal)) {
      std::size_t best = kept.size();
      double best_loss = 0.0;
      for (std::size_t i = 0; i < kept.size(); ++i) {
        if (freqs[i] <= 1) continue;
        const double loss = static_cast<double>(kept[i]) / (freqs[i] - 1);
        if (best == kept.size() || loss < best_loss) {
          best_loss = loss;
          best = i;
        }
      }
      --freqs[best];
      --assigned;
    }
    return freqs;
  };
  ans::FreqTable best;
  double best_cost = -1.0;
  for (const std::uint64_t threshold : {0ull, 1ull, 2ull, 4ull, 8ull}) {
    ans::FreqTable t;
    std::vector<std::uint64_t> kept;
    std::uint64_t escaped = 0;
    for (int s = 0; s < n_symbols; ++s) {
      if (counts[s] == 0) continue;
      if (threshold > 0 && counts[s] <= threshold) {
        escaped += counts[s];
      } else {
        t.symbols.push_back(static_cast<std::uint16_t>(s));
        kept.push_back(counts[s]);
      }
    }
    if (escaped > 0 || t.symbols.empty()) {
      if (escaped == 0) continue;
      t.symbols.push_back(static_cast<std::uint16_t>(ans::kEscapeSymbol));
      kept.push_back(escaped);
    }
    for (const std::uint32_t f : normalize(kept)) t.freqs.push_back(static_cast<std::uint16_t>(f));
    t.finalize();
    const double cost = ans::table_stream_bits(t, counts, n_symbols) +
                        8.0 * static_cast<double>(ans::serialized_table_bytes(t));
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best = std::move(t);
    }
  }
  return best;
}

TEST(AnsTable, WinnerOnlyFinalizeMatchesFinalizedSweep) {
  // Skewed histograms with long tails of 1..8 counts make every escape
  // threshold a live candidate; sparse ones leave most ids absent.
  Rng rng(23);
  int checked = 0;
  for (const int n : {16, 64, 256}) {
    for (const double decay : {1.0, 0.97, 0.9, 0.7, 0.5}) {
      for (int rep = 0; rep < 4; ++rep) {
        std::vector<std::uint64_t> counts = skewed_counts(rng, n, decay);
        if (rep % 2 == 1) {
          for (auto& c : counts) c = rng.uniform(0.0, 1.0) < 0.6 ? 0 : c % 9;
        }
        if (std::all_of(counts.begin(), counts.end(), [](std::uint64_t c) { return c == 0; })) {
          continue;  // the pure-escape table is not swept
        }
        const ans::FreqTable got = ans::build_table(counts.data(), n);
        const ans::FreqTable want = finalized_sweep_oracle(counts.data(), n);
        std::vector<std::uint8_t> got_bytes, want_bytes;
        ans::serialize_table(got, got_bytes);
        ans::serialize_table(want, want_bytes);
        EXPECT_EQ(got_bytes, want_bytes) << "n=" << n << " decay=" << decay << " rep=" << rep;
        EXPECT_EQ(got.cum, want.cum);
        EXPECT_EQ(got.entry_of, want.entry_of);
        EXPECT_EQ(got.packed, want.packed);
        EXPECT_EQ(got.esc_start, want.esc_start);
        EXPECT_EQ(got.recip, want.recip);
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 50);
}

TEST(AnsTable, DeserializeRejectsTruncatedAndCorrupt) {
  Rng rng(13);
  const std::vector<std::uint64_t> counts = skewed_counts(rng, 64, 0.8);
  const ans::FreqTable table = ans::build_table(counts.data(), 64);
  std::vector<std::uint8_t> blob;
  ans::serialize_table(table, blob);
  // Every truncation point fails cleanly.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    ans::ByteReader in(blob.data(), cut);
    EXPECT_THROW((void)ans::deserialize_table(in), Error) << "cut=" << cut;
  }
  // A tampered entry count either overruns the buffer or breaks the
  // frequency-sum invariant; either way it must throw, not misparse.
  for (const std::uint16_t bad_count : {std::uint16_t{0}, std::uint16_t{258},
                                        std::uint16_t{0xffff}}) {
    std::vector<std::uint8_t> tampered = blob;
    tampered[0] = static_cast<std::uint8_t>(bad_count & 0xff);
    tampered[1] = static_cast<std::uint8_t>(bad_count >> 8);
    ans::ByteReader in(tampered.data(), tampered.size());
    EXPECT_THROW((void)ans::deserialize_table(in), Error);
  }
}

// ---------------------------------------------------------------------------
// Generic coder: interleaved streams
// ---------------------------------------------------------------------------

// Encodes `symbols` under a table built from their histogram (absent symbols
// escape to a literal side stream), decodes forward, and expects an exact
// round trip plus a clean end-of-stream check.
void round_trip(const std::vector<int>& symbols, int n_alphabet) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(n_alphabet), 0);
  for (const int s : symbols) counts[static_cast<std::size_t>(s)]++;
  const ans::FreqTable table = ans::build_table(counts.data(), n_alphabet);
  const std::vector<ans::FreqTable> tables = {table};

  std::vector<ans::SymbolRef> ops;
  ans::BitWriter side;
  for (const int s : symbols) {
    if (table.has(s)) {
      ops.push_back({0, static_cast<std::uint16_t>(s)});
    } else {
      ops.push_back({0, static_cast<std::uint16_t>(ans::kEscapeSymbol)});
      side.put(static_cast<std::uint32_t>(s), 8);
    }
  }
  const ans::EncodedStreams enc = ans::encode_interleaved(ops, tables);
  const std::vector<std::uint8_t> side_bytes = side.finish();

  ans::InterleavedDecoder dec(enc.states, enc.stream.data(), enc.stream.size());
  ans::BitReader side_in(side_bytes.data(), side_bytes.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    int s = dec.get(table);
    if (s == ans::kEscapeSymbol && !table.has(symbols[i])) {
      s = static_cast<int>(side_in.get(8));
    }
    ASSERT_EQ(s, symbols[i]) << "at index " << i;
  }
  dec.expect_exhausted();
}

TEST(AnsStream, RoundTripUniformAlphabet) {
  Rng rng(17);
  std::vector<int> symbols(5000);
  for (int& s : symbols) s = static_cast<int>(rng.uniform_int(0, 255));
  round_trip(symbols, 256);
}

TEST(AnsStream, RoundTripSkewedAlphabet) {
  Rng rng(19);
  std::vector<int> symbols;
  for (int i = 0; i < 8000; ++i) {
    // Geometric-ish: low symbols dominate, the tail is rare enough to fold
    // into ESCAPE, exercising the literal side stream.
    int s = 0;
    while (s < 255 && rng.uniform(0.0, 1.0) < 0.62) ++s;
    symbols.push_back(s);
  }
  round_trip(symbols, 256);
}

TEST(AnsStream, RoundTripSingleSymbolRun) {
  round_trip(std::vector<int>(1000, 42), 256);
}

TEST(AnsStream, RoundTripShortSequences) {
  // Fewer symbols than streams: some states never code anything.
  Rng rng(23);
  for (int len = 0; len <= 2 * ans::kNumStreams; ++len) {
    std::vector<int> symbols(static_cast<std::size_t>(len));
    for (int& s : symbols) s = static_cast<int>(rng.uniform_int(0, 15));
    round_trip(symbols, 16);
  }
}

TEST(AnsStream, MultiTableRoundTrip) {
  // Alternating contexts, as the codec's DC/AC context switching does.
  Rng rng(29);
  std::vector<std::uint64_t> c0(16, 0), c1(256, 0);
  std::vector<int> symbols(6000);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const int n = (i % 2 == 0) ? 16 : 256;
    symbols[i] = static_cast<int>(rng.uniform_int(0, n - 1));
    ((i % 2 == 0) ? c0 : c1)[static_cast<std::size_t>(symbols[i])]++;
  }
  std::vector<ans::FreqTable> tables = {ans::build_table(c0.data(), 16),
                                        ans::build_table(c1.data(), 256)};
  std::vector<ans::SymbolRef> ops;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    ops.push_back({static_cast<std::uint16_t>(i % 2),
                   static_cast<std::uint16_t>(symbols[i])});
  }
  const ans::EncodedStreams enc = ans::encode_interleaved(ops, tables);
  ans::InterleavedDecoder dec(enc.states, enc.stream.data(), enc.stream.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    ASSERT_EQ(dec.get(tables[i % 2]), symbols[i]);
  }
  dec.expect_exhausted();
}

TEST(AnsStream, CompressionApproachesEntropy) {
  // A heavily skewed stream must compress well below 8 bits/symbol.
  Rng rng(31);
  std::vector<int> symbols;
  for (int i = 0; i < 20000; ++i) {
    symbols.push_back(rng.uniform(0.0, 1.0) < 0.9 ? 0
                                                  : static_cast<int>(rng.uniform_int(0, 7)));
  }
  std::vector<std::uint64_t> counts(256, 0);
  for (const int s : symbols) counts[static_cast<std::size_t>(s)]++;
  const ans::FreqTable table = ans::build_table(counts.data(), 256);
  const std::vector<ans::FreqTable> tables = {table};
  std::vector<ans::SymbolRef> ops;
  for (const int s : symbols) ops.push_back({0, static_cast<std::uint16_t>(s)});
  const ans::EncodedStreams enc = ans::encode_interleaved(ops, tables);
  const double bits_per_symbol =
      8.0 * static_cast<double>(enc.stream.size()) / static_cast<double>(symbols.size());
  EXPECT_LT(bits_per_symbol, 1.0);  // H(X) here is ~0.75 bits
}

TEST(AnsStream, TruncatedStreamFailsCleanly) {
  Rng rng(37);
  std::vector<int> symbols(2000);
  for (int& s : symbols) s = static_cast<int>(rng.uniform_int(0, 63));
  std::vector<std::uint64_t> counts(64, 0);
  for (const int s : symbols) counts[static_cast<std::size_t>(s)]++;
  const ans::FreqTable table = ans::build_table(counts.data(), 64);
  const std::vector<ans::FreqTable> tables = {table};
  std::vector<ans::SymbolRef> ops;
  for (const int s : symbols) ops.push_back({0, static_cast<std::uint16_t>(s)});
  const ans::EncodedStreams enc = ans::encode_interleaved(ops, tables);
  ASSERT_FALSE(enc.stream.empty());

  // A full decode consumes every stream byte, so ANY truncation is caught:
  // either a renormalization read throws, or the final exhaustion check does.
  for (std::size_t cut = 0; cut < enc.stream.size();
       cut += std::max<std::size_t>(1, enc.stream.size() / 97)) {
    auto decode_all = [&] {
      ans::InterleavedDecoder dec(enc.states, enc.stream.data(), cut);
      for (std::size_t i = 0; i < symbols.size(); ++i) (void)dec.get(table);
      dec.expect_exhausted();
    };
    EXPECT_THROW(decode_all(), Error) << "cut=" << cut;
  }
}

TEST(AnsStream, GarbageInputNeverReadsOutOfBounds) {
  // Arbitrary states and stream bytes must decode *something* or throw — the
  // sanitizer legs of tier1.sh are the real assertion here.
  Rng rng(41);
  std::vector<std::uint64_t> counts(16, 1);
  const ans::FreqTable table = ans::build_table(counts.data(), 16);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::uint32_t, ans::kNumStreams> states;
    for (auto& s : states) s = static_cast<std::uint32_t>(rng.uniform_int(0, (1ll << 32) - 1));
    std::vector<std::uint8_t> garbage(
        static_cast<std::size_t>(rng.uniform_int(0, 63)));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      ans::InterleavedDecoder dec(states, garbage.data(), garbage.size());
      for (int i = 0; i < 200; ++i) {
        const int s = dec.get(table);
        ASSERT_GE(s, 0);
        ASSERT_LE(s, 256);
      }
      dec.expect_exhausted();
    } catch (const Error&) {
      // Clean rejection is equally fine.
    }
  }
}

TEST(AnsBits, WriterReaderRoundTrip) {
  Rng rng(43);
  std::vector<std::pair<std::uint32_t, int>> fields;
  ans::BitWriter writer;
  for (int i = 0; i < 3000; ++i) {
    const int nbits = 1 + static_cast<int>(rng.uniform_int(0, 15));
    const std::uint32_t value =
        static_cast<std::uint32_t>(rng.uniform_int(0, (1ll << nbits) - 1));
    fields.emplace_back(value, nbits);
    writer.put(value, nbits);
  }
  const std::vector<std::uint8_t> bytes = writer.finish();
  ans::BitReader reader(bytes.data(), bytes.size());
  for (const auto& [value, nbits] : fields) {
    ASSERT_EQ(reader.get(nbits), value);
  }
  EXPECT_EQ(reader.consumed_bytes(), bytes.size());
  // Reading past the padded end throws.
  EXPECT_THROW((void)reader.get(16), Error);
}

// ---------------------------------------------------------------------------
// Codec payload: exact round trip across the ladder
// ---------------------------------------------------------------------------

const std::vector<int>& ladder_qualities() {
  static const std::vector<int> kLadder = {92, 85, 75, 65, 55, 45, 35};
  return kLadder;
}

Raster synth_raster(std::uint64_t seed, ImageClass cls, int w, int h) {
  Rng rng(seed);
  return synth_image(rng, cls, w, h);
}

Encoded encode_with(ImageFormat format, const Raster& img, int quality,
                    EntropyBackend backend) {
  return format == ImageFormat::kJpeg ? jpeg_encode(img, quality, backend)
                                      : webp_encode(img, quality, backend);
}

TEST(ImagingAnsCodec, LevelsRoundTripAcrossLadder) {
  for (const ImageFormat format : {ImageFormat::kJpeg, ImageFormat::kWebp}) {
    const Raster img = synth_raster(51, ImageClass::kPhoto, 96, 72);
    const detail::LossyParams params = detail::lossy_params_for(format);
    const detail::PreparedLossy prep = detail::prepare_lossy(img, params);
    for (const int q : ladder_qualities()) {
      const Encoded enc = encode_with(format, img, q, EntropyBackend::kRans);
      ASSERT_EQ(enc.entropy, EntropyBackend::kRans);
      ASSERT_FALSE(enc.payload.empty());

      const detail::DecodedLossy expected = detail::quantize_levels(prep, q, params);
      const detail::DecodedLossy parsed =
          detail::rans_parse_payload(enc.payload.data(), enc.payload.size());
      EXPECT_EQ(parsed.format, format);
      EXPECT_EQ(parsed.quality, q);
      EXPECT_EQ(parsed.width, expected.width);
      EXPECT_EQ(parsed.height, expected.height);
      // Bit-exact coefficient levels: the entropy backend is lossless.
      EXPECT_EQ(parsed.luma, expected.luma) << to_string(format) << " q" << q;
      EXPECT_EQ(parsed.cb, expected.cb) << to_string(format) << " q" << q;
      EXPECT_EQ(parsed.cr, expected.cr) << to_string(format) << " q" << q;
    }
  }
}

TEST(ImagingAnsCodec, DecodedRasterBitExact) {
  // Odd dims exercise the partial-block edges of the reconstruction.
  const Raster img = synth_raster(53, ImageClass::kScreenshot, 93, 61);
  for (const ImageFormat format : {ImageFormat::kJpeg, ImageFormat::kWebp}) {
    for (const int q : {85, 55, 35}) {
      const Encoded enc = encode_with(format, img, q, EntropyBackend::kRans);
      const Raster decoded = lossy_decode(enc.payload);
      ASSERT_EQ(decoded.width(), enc.decoded.width());
      ASSERT_EQ(decoded.height(), enc.decoded.height());
      EXPECT_TRUE(decoded.pixels() == enc.decoded.pixels())
          << to_string(format) << " q" << q;
    }
  }
}

TEST(ImagingAnsCodec, BackendsDecodeIdentically) {
  // Entropy coding is lossless, so the two backends must reconstruct the
  // same raster — equal bytes-at-equal-SSIM comparisons need no re-measuring.
  const Raster img = synth_raster(59, ImageClass::kPhoto, 80, 80);
  for (const ImageFormat format : {ImageFormat::kJpeg, ImageFormat::kWebp}) {
    for (const int q : {92, 65, 35}) {
      const Encoded huff = encode_with(format, img, q, EntropyBackend::kHuffman);
      const Encoded rans = encode_with(format, img, q, EntropyBackend::kRans);
      EXPECT_TRUE(huff.decoded.pixels() == rans.decoded.pixels())
          << to_string(format) << " q" << q;
    }
  }
}

TEST(ImagingAnsCodec, RansPayloadBeatsHuffmanModelAggregate) {
  // The headline claim, in miniature: over the quality ladder the measured
  // rANS payload undercuts the Huffman-model payload by >= 5% in aggregate
  // (bench_perf_pipeline gates the full-size version of this).
  double huff_total = 0.0, rans_total = 0.0;
  for (const std::uint64_t seed : {61ull, 67ull}) {
    const Raster img = synth_raster(seed, ImageClass::kPhoto, 96, 96);
    for (const int q : ladder_qualities()) {
      huff_total += static_cast<double>(
          jpeg_encode(img, q, EntropyBackend::kHuffman).payload_bytes());
      rans_total += static_cast<double>(
          jpeg_encode(img, q, EntropyBackend::kRans).payload_bytes());
    }
  }
  EXPECT_LT(rans_total, 0.95 * huff_total);
}

TEST(ImagingAnsCodec, EntropyCostCalibration) {
  // Pins EntropyCost::kRansVsHuffman to the measured mean ratio so drift in
  // either coder (model recalibration, table format changes) shows up here.
  double ratio_sum = 0.0;
  int n = 0;
  for (const ImageClass cls : {ImageClass::kPhoto, ImageClass::kScreenshot}) {
    const Raster img = synth_raster(71 + static_cast<int>(cls), cls, 96, 96);
    for (const int q : ladder_qualities()) {
      const double huff = static_cast<double>(
          jpeg_encode(img, q, EntropyBackend::kHuffman).payload_bytes());
      const double rans = static_cast<double>(
          jpeg_encode(img, q, EntropyBackend::kRans).payload_bytes());
      ASSERT_GT(huff, 0.0);
      ratio_sum += rans / huff;
      ++n;
    }
  }
  const double mean_ratio = ratio_sum / n;
  EXPECT_NEAR(mean_ratio, detail::EntropyCost::kRansVsHuffman, 0.06)
      << "re-measure and update EntropyCost::kRansVsHuffman";
  EXPECT_DOUBLE_EQ(detail::EntropyCost::payload_multiplier(EntropyBackend::kRans),
                   detail::EntropyCost::kRansVsHuffman);
  EXPECT_DOUBLE_EQ(detail::EntropyCost::payload_multiplier(EntropyBackend::kHuffman), 1.0);
}

TEST(ImagingAnsCodec, HuffmanPathCarriesNoPayload) {
  const Raster img = synth_raster(73, ImageClass::kPhoto, 48, 48);
  const Encoded enc = jpeg_encode(img, 75, EntropyBackend::kHuffman);
  EXPECT_EQ(enc.entropy, EntropyBackend::kHuffman);
  EXPECT_TRUE(enc.payload.empty());
}

// ---------------------------------------------------------------------------
// Codec payload: corrupt-input robustness
// ---------------------------------------------------------------------------

TEST(ImagingAnsCodec, TruncatedPayloadThrows) {
  const Raster img = synth_raster(79, ImageClass::kPhoto, 64, 48);
  const Encoded enc = jpeg_encode(img, 65, EntropyBackend::kRans);
  const std::vector<std::uint8_t>& blob = enc.payload;
  ASSERT_GT(blob.size(), 32u);
  // Every header truncation plus a sample of body truncations.
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < 32; ++cut) cuts.push_back(cut);
  for (std::size_t cut = 32; cut < blob.size();
       cut += std::max<std::size_t>(1, blob.size() / 64)) {
    cuts.push_back(cut);
  }
  for (const std::size_t cut : cuts) {
    const std::vector<std::uint8_t> truncated(blob.begin(),
                                              blob.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)lossy_decode(truncated), Error) << "cut=" << cut;
  }
}

TEST(ImagingAnsCodec, TrailingBytesRejected) {
  const Raster img = synth_raster(83, ImageClass::kPhoto, 48, 48);
  std::vector<std::uint8_t> blob = jpeg_encode(img, 65, EntropyBackend::kRans).payload;
  blob.push_back(0);
  EXPECT_THROW((void)lossy_decode(blob), Error);
}

TEST(ImagingAnsCodec, CorruptHeaderFieldsThrow) {
  const Raster img = synth_raster(89, ImageClass::kPhoto, 48, 48);
  const std::vector<std::uint8_t> blob = jpeg_encode(img, 65, EntropyBackend::kRans).payload;
  auto expect_rejected = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = blob;
    bad[offset] = value;
    EXPECT_THROW((void)lossy_decode(bad), Error) << "offset=" << offset;
  };
  expect_rejected(0, 0x00);   // magic lo
  expect_rejected(1, 0x00);   // magic hi
  expect_rejected(2, 99);     // version
  expect_rejected(3, 7);      // format
  expect_rejected(4, 0);      // quality 0
  expect_rejected(4, 101);    // quality > 100
  expect_rejected(6, 0xff);   // width -> dims product over cap / mismatch
  expect_rejected(7, 0xff);
}

TEST(ImagingAnsCodec, BitFlippedBodyNeverCrashes) {
  // Deterministic bit flips across the whole blob: each either throws a
  // recoverable Error or decodes to *something* — never UB, never LogicError
  // (the sanitizer legs of tier1.sh re-run this test under ASan/UBSan/TSan).
  const Raster img = synth_raster(97, ImageClass::kPhoto, 64, 64);
  const std::vector<std::uint8_t> blob = jpeg_encode(img, 55, EntropyBackend::kRans).payload;
  for (std::size_t offset = 0; offset < blob.size();
       offset += std::max<std::size_t>(1, blob.size() / 128)) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> bad = blob;
      bad[offset] = static_cast<std::uint8_t>(bad[offset] ^ mask);
      try {
        (void)lossy_decode(bad);
      } catch (const Error&) {
        // Clean rejection.
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD dispatch: the AVX2 path must be indistinguishable from scalar
// ---------------------------------------------------------------------------

/// Forces a dispatch mode for one test body and restores kAuto on exit, so
/// test order can't leak a forced mode into unrelated codec tests.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(ans::SimdMode mode) { ans::set_simd_mode(mode); }
  ~ScopedSimdMode() { ans::set_simd_mode(ans::SimdMode::kAuto); }
};

/// Multi-table op sequence with a tunable escape share, mirroring the
/// codec's DC/AC context alternation. Returns the expected symbol per op.
struct SimdFixtureStreams {
  std::vector<ans::FreqTable> tables;
  std::vector<ans::SymbolRef> ops;
  std::vector<int> expected;
  ans::EncodedStreams enc;
};

SimdFixtureStreams make_simd_fixture(std::uint64_t seed, int n_ops, double escape_share) {
  Rng rng(seed);
  std::vector<std::uint64_t> c0(16, 0), c1(256, 0);
  std::vector<int> symbols(static_cast<std::size_t>(n_ops));
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const bool small = i % 2 == 0;
    if (!small && rng.uniform(0.0, 1.0) < escape_share) {
      symbols[i] = 255;  // left out of the histogram below -> escapes
      continue;
    }
    int s = 0;
    while (s < (small ? 14 : 200) && rng.uniform(0.0, 1.0) < 0.55) ++s;
    symbols[i] = s;
    (small ? c0 : c1)[static_cast<std::size_t>(s)]++;
  }
  SimdFixtureStreams fx;
  fx.tables = {ans::build_table(c0.data(), 16), ans::build_table(c1.data(), 256)};
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const auto table = static_cast<std::uint16_t>(i % 2);
    const ans::FreqTable& t = fx.tables[table];
    int s = symbols[i];
    if (!t.has(s)) {
      // Out-of-table symbols ride the escape entry when the sweep kept one;
      // a table without ESCAPE codes every histogram symbol, so substitute
      // one of those (the fixture only needs a decodable op sequence).
      s = t.has_escape() ? ans::kEscapeSymbol : t.symbols[0];
    }
    fx.ops.push_back({table, static_cast<std::uint16_t>(s)});
    fx.expected.push_back(s);
  }
  fx.enc = ans::encode_interleaved(fx.ops, fx.tables);
  return fx;
}

std::vector<int> decode_all_packed(const SimdFixtureStreams& fx, ans::SimdMode mode) {
  ScopedSimdMode guard(mode);
  const ans::PackedSet set(fx.tables);
  ans::PackedDecoder dec(fx.enc.states, fx.enc.stream.data(), fx.enc.stream.size(), set);
  std::vector<int> out;
  out.reserve(fx.expected.size());
  for (const ans::SymbolRef& op : fx.ops) out.push_back(dec.get(op.table));
  dec.expect_exhausted();
  return out;
}

TEST(AnsSimd, PackedScalarMatchesPinnedReference) {
  // The packed production decoder forced scalar == the pinned
  // InterleavedDecoder, symbol for symbol, escapes included.
  for (const double esc : {0.0, 0.35}) {
    const SimdFixtureStreams fx = make_simd_fixture(107 + static_cast<int>(esc * 100),
                                                    6000, esc);
    ScopedSimdMode guard(ans::SimdMode::kScalar);
    const ans::PackedSet set(fx.tables);
    ans::PackedDecoder dec(fx.enc.states, fx.enc.stream.data(), fx.enc.stream.size(), set);
    ans::InterleavedDecoder ref(fx.enc.states, fx.enc.stream.data(), fx.enc.stream.size());
    for (std::size_t i = 0; i < fx.ops.size(); ++i) {
      const int table = fx.ops[i].table;
      ASSERT_EQ(dec.get(static_cast<std::uint32_t>(table)),
                ref.get(fx.tables[static_cast<std::size_t>(table)]))
          << "op " << i;
    }
    dec.expect_exhausted();
    ref.expect_exhausted();
  }
}

TEST(AnsSimd, SimdMatchesScalarSymbolForSymbol) {
  if (!ans::simd_available()) GTEST_SKIP() << "no AVX2 kernel on this host";
  // Escape-light, escape-heavy, and tail lengths that leave partial groups.
  for (const int n_ops : {0, 1, 7, 8, 9, 4096, 6001}) {
    for (const double esc : {0.0, 0.5}) {
      const SimdFixtureStreams fx =
          make_simd_fixture(113 + static_cast<std::uint64_t>(n_ops), n_ops, esc);
      EXPECT_EQ(decode_all_packed(fx, ans::SimdMode::kSimd),
                decode_all_packed(fx, ans::SimdMode::kScalar))
          << "n_ops=" << n_ops << " esc=" << esc;
    }
  }
}

TEST(AnsSimd, LadderBitIdenticalAcrossModes) {
  if (!ans::simd_available()) GTEST_SKIP() << "no AVX2 kernel on this host";
  // End to end: every rung's parsed levels and decoded raster are
  // bit-identical between forced-scalar and forced-SIMD decodes.
  const Raster img = synth_raster(109, ImageClass::kPhoto, 93, 61);
  for (const int q : ladder_qualities()) {
    const Encoded enc = jpeg_encode(img, q, EntropyBackend::kRans);
    detail::DecodedLossy scalar_levels, simd_levels;
    Raster scalar_px(1, 1), simd_px(1, 1);
    {
      ScopedSimdMode guard(ans::SimdMode::kScalar);
      scalar_levels = detail::rans_parse_payload(enc.payload.data(), enc.payload.size());
      scalar_px = lossy_decode(enc.payload);
    }
    {
      ScopedSimdMode guard(ans::SimdMode::kSimd);
      simd_levels = detail::rans_parse_payload(enc.payload.data(), enc.payload.size());
      simd_px = lossy_decode(enc.payload);
    }
    EXPECT_EQ(scalar_levels.luma, simd_levels.luma) << "q" << q;
    EXPECT_EQ(scalar_levels.cb, simd_levels.cb) << "q" << q;
    EXPECT_EQ(scalar_levels.cr, simd_levels.cr) << "q" << q;
    EXPECT_TRUE(scalar_px.pixels() == simd_px.pixels()) << "q" << q;
    EXPECT_TRUE(scalar_px.pixels() == enc.decoded.pixels()) << "q" << q;
  }
}

TEST(AnsSimd, TruncationRejectedInBothModes) {
  // Accept/reject of any blob is mode-independent: a deferred SIMD flush
  // may surface truncation later than scalar, but never lets
  // expect_exhausted() pass on a short stream.
  const SimdFixtureStreams fx = make_simd_fixture(127, 3000, 0.2);
  const std::vector<ans::SimdMode> modes =
      ans::simd_available()
          ? std::vector<ans::SimdMode>{ans::SimdMode::kScalar, ans::SimdMode::kSimd}
          : std::vector<ans::SimdMode>{ans::SimdMode::kScalar};
  for (std::size_t cut = 0; cut < fx.enc.stream.size();
       cut += std::max<std::size_t>(1, fx.enc.stream.size() / 61)) {
    for (const ans::SimdMode mode : modes) {
      ScopedSimdMode guard(mode);
      auto decode_truncated = [&] {
        const ans::PackedSet set(fx.tables);
        ans::PackedDecoder dec(fx.enc.states, fx.enc.stream.data(), cut, set);
        for (const ans::SymbolRef& op : fx.ops) (void)dec.get(op.table);
        dec.expect_exhausted();
      };
      EXPECT_THROW(decode_truncated(), Error) << "cut=" << cut;
    }
  }
}

TEST(AnsEncode, ReciprocalEncoderMatchesReferenceByteForByte) {
  // The division-free hot path must emit the exact bytes and final states
  // of the pinned division/modulo encoder.
  for (const std::uint64_t seed : {131ull, 137ull, 139ull}) {
    const SimdFixtureStreams fx = make_simd_fixture(seed, 5000, 0.25);
    const ans::EncodedStreams ref = ans::encode_interleaved_reference(fx.ops, fx.tables);
    EXPECT_TRUE(fx.enc.stream == ref.stream);
    EXPECT_EQ(fx.enc.states, ref.states);
  }
}

TEST(AnsTable, DeserializePackedSetMatchesDeserializeTable) {
  // The decode-only parser must accept exactly what deserialize_table
  // accepts and produce the same packed slots — and reject exactly what it
  // rejects, byte mutation by byte mutation.
  Rng rng(149);
  std::vector<ans::FreqTable> tables;
  std::vector<std::uint8_t> bytes;
  for (int t = 0; t < 4; ++t) {
    const std::vector<std::uint64_t> counts = skewed_counts(rng, 256, 0.96);
    tables.push_back(ans::build_table(counts.data(), 256));
    ans::serialize_table(tables.back(), bytes);
  }
  {
    ans::ByteReader in(bytes.data(), bytes.size());
    const ans::PackedSet direct =
        ans::deserialize_packed_set(in, static_cast<int>(tables.size()));
    EXPECT_EQ(in.remaining(), 0u);
    const ans::PackedSet via_tables(tables);
    EXPECT_TRUE(direct.slots == via_tables.slots);
    EXPECT_TRUE(direct.esc_start == via_tables.esc_start);
  }
  // Throw parity under single-byte corruption and truncation.
  for (std::size_t off = 0; off < bytes.size();
       off += std::max<std::size_t>(1, bytes.size() / 97)) {
    std::vector<std::uint8_t> bad = bytes;
    bad[off] = static_cast<std::uint8_t>(bad[off] ^ 0x2D);
    bool table_threw = false, packed_threw = false;
    std::vector<ans::FreqTable> reparsed;
    try {
      ans::ByteReader in(bad.data(), bad.size());
      for (std::size_t t = 0; t < tables.size(); ++t)
        reparsed.push_back(ans::deserialize_table(in));
    } catch (const Error&) {
      table_threw = true;
    }
    try {
      ans::ByteReader in(bad.data(), bad.size());
      const ans::PackedSet direct =
          ans::deserialize_packed_set(in, static_cast<int>(tables.size()));
      if (!table_threw) {
        const ans::PackedSet via_tables(reparsed);
        EXPECT_TRUE(direct.slots == via_tables.slots) << "off=" << off;
        EXPECT_TRUE(direct.esc_start == via_tables.esc_start) << "off=" << off;
      }
    } catch (const Error&) {
      packed_threw = true;
    }
    EXPECT_EQ(table_threw, packed_threw) << "off=" << off;
    EXPECT_THROW(
        [&] {
          ans::ByteReader in(bytes.data(), off);
          (void)ans::deserialize_packed_set(in, static_cast<int>(tables.size()));
        }(),
        Error)
        << "truncation at " << off;
  }
}

// ---------------------------------------------------------------------------
// Fault injection: payload determinism across transient faults
// ---------------------------------------------------------------------------

class ImagingAnsFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(ImagingAnsFaultTest, BlobIdenticalAfterTransientFault) {
  // A transient codec fault followed by a retry must yield the exact same
  // payload blob — the ladder's A/B comparisons depend on deterministic
  // bytes regardless of the fault schedule.
  const Raster img = synth_raster(101, ImageClass::kPhoto, 64, 64);
  const Codec& codec = codec_for(ImageFormat::kJpeg);
  const Codec::PreparedPtr prep = codec.prepare(img);
  const Encoded expected = codec.encode(img, 65, EntropyBackend::kRans);

  fault::configure("codec.jpeg.encode", {.probability = 1.0, .max_fires = 1});
  EXPECT_THROW((void)codec.encode_prepared(*prep, 65, EntropyBackend::kRans),
               fault::InjectedFault);
  const Encoded after = codec.encode_prepared(*prep, 65, EntropyBackend::kRans);
  EXPECT_EQ(after.payload, expected.payload);
  EXPECT_EQ(after.bytes, expected.bytes);
  EXPECT_EQ(after.header_bytes, expected.header_bytes);
  EXPECT_TRUE(after.decoded.pixels() == expected.decoded.pixels());
  // And it still parses back bit-exactly.
  EXPECT_TRUE(lossy_decode(after.payload).pixels() == expected.decoded.pixels());
}

// ---------------------------------------------------------------------------
// Identity plumbing: ladders and caches never mix backends
// ---------------------------------------------------------------------------

TEST(ImagingAnsIdentity, LadderFingerprintSeparatesBackends) {
  LadderOptions huff;
  LadderOptions rans = huff;
  rans.entropy_backend = EntropyBackend::kRans;
  EXPECT_NE(ladder_options_fingerprint(huff), ladder_options_fingerprint(rans));
}

TEST(ImagingAnsIdentity, ConfigFingerprintSeparatesBackends) {
  core::DeveloperConfig huff;
  core::DeveloperConfig rans = huff;
  rans.entropy_backend = EntropyBackend::kRans;
  EXPECT_NE(serving::config_fingerprint(huff), serving::config_fingerprint(rans));
}

TEST(ImagingAnsIdentity, PipelineLadderOptionsCarryBackend) {
  core::DeveloperConfig config;
  config.entropy_backend = EntropyBackend::kRans;
  const core::Aw4aPipeline pipeline(config);
  EXPECT_EQ(pipeline.ladder_options().entropy_backend, EntropyBackend::kRans);
}

TEST(ImagingAnsIdentity, MeasuredVariantBytesDifferByBackend) {
  Rng rng(103);
  const SourceImage asset = make_source_image(rng, ImageClass::kPhoto, 200'000);
  const ImageVariant huff =
      measure_variant(asset, ImageFormat::kJpeg, 1.0, 65,
                      obs::RequestContext::none(), EntropyBackend::kHuffman);
  const ImageVariant rans =
      measure_variant(asset, ImageFormat::kJpeg, 1.0, 65,
                      obs::RequestContext::none(), EntropyBackend::kRans);
  EXPECT_LT(rans.bytes, huff.bytes);
  // Lossless entropy coding: identical SSIM.
  EXPECT_DOUBLE_EQ(rans.ssim, huff.ssim);
}

}  // namespace
}  // namespace aw4a::imaging
