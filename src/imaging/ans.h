// Tabled rANS (range asymmetric numeral system) entropy coder with N-way
// interleaved streams — the real-bitstream entropy backend of the lossy
// codec family (DESIGN.md §13).
//
// The coder is static and two-pass: callers histogram their symbols, build a
// FreqTable (frequencies normalized to a power-of-two total, rare symbols
// folded into an ESCAPE pseudo-symbol whose occurrences ship as raw literal
// bytes in a side stream), then encode the symbol sequence in reverse order
// through kNumStreams independent 32-bit rANS states that renormalize 16
// bits at a time into ONE byte stream. The decoder walks the sequence
// forward, round-robining the same states; because the streams are
// independent serial chains touched in a fixed rotation, both loops are the
// shape auto-vectorizers (and out-of-order cores) exploit — no state ever
// waits on another.
//
// One decoder, PackedDecoder, walks the sequence over a PackedSet (every
// table's per-slot metadata concatenated into one u32 array, built from the
// encoder's FreqTables or parsed straight off the wire): one packed-slot
// lookup, one state update and at most one 16-bit refill per symbol.
//
// Robustness contract: decoding never reads out of bounds and never
// allocates from attacker-controlled sizes without validation; a truncated
// or corrupt buffer throws aw4a::Error (the recoverable taxonomy — see
// util/error.h). The slot->symbol table covers every slot, so arbitrary
// garbage states still decode *some* symbol; integrity is enforced by the
// end-of-stream checks (states must return to the initial value, the stream
// must be fully consumed).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

namespace aw4a::imaging::ans {

/// log2 of the normalized frequency total. 12 keeps the quantization loss
/// of small proxy-image histograms negligible while the slot->symbol lookup
/// (4096 entries, u32) stays L1-resident.
inline constexpr int kScaleBits = 12;
inline constexpr std::uint32_t kScaleTotal = 1u << kScaleBits;

/// Interleaved stream count. Eight independent chains saturate the issue
/// width of current cores; the stream a symbol belongs to is its position
/// in the sequence mod kNumStreams.
inline constexpr int kNumStreams = 8;

/// Lower bound of the 32-bit rANS state (16-bit renormalization): states
/// live in [kStateMin, kStateMin << 16).
inline constexpr std::uint32_t kStateMin = 1u << 16;

/// Symbol id of the ESCAPE pseudo-symbol. Tables span ids [0, 256]; real
/// alphabets are byte-valued, so 256 can never collide.
inline constexpr int kEscapeSymbol = 256;

/// Packed per-slot decode metadata: (freq - 1) in bits [20, 32), the slot
/// bias (slot - cum, i.e. the remainder the state update adds back) in bits
/// [8, 20), and the low 8 bits of the symbol id in bits [0, 8). ESCAPE
/// (id 256) does not fit the symbol byte; it is always the table's LAST
/// entry, so its slots are exactly [esc_start, kScaleTotal) and the decoder
/// recognizes it by slot position instead.
inline constexpr std::uint32_t pack_slot(std::uint32_t freq, std::uint32_t bias,
                                         std::uint32_t symbol) {
  return ((freq - 1) << 20) | (bias << 8) | (symbol & 0xFFu);
}
inline constexpr std::uint32_t packed_freq(std::uint32_t p) { return (p >> 20) + 1; }
inline constexpr std::uint32_t packed_bias(std::uint32_t p) { return (p >> 8) & 0xFFFu; }
inline constexpr std::uint32_t packed_symbol(std::uint32_t p) { return p & 0xFFu; }

/// A normalized frequency table over symbol ids [0, 256] — the encoder's
/// view (the decoder reads a PackedSet). Entries are kept sparse (present
/// symbols only, ascending id, ESCAPE last if present); frequencies sum to
/// exactly kScaleTotal.
struct FreqTable {
  std::vector<std::uint16_t> symbols;  ///< ascending; kEscapeSymbol last
  std::vector<std::uint16_t> freqs;    ///< normalized, each >= 1
  std::vector<std::uint16_t> cum;      ///< exclusive prefix sums of freqs

  /// symbol id -> entry index + 1, 0 when the symbol is not in the table
  /// (the encoder then codes ESCAPE + a literal). Size 257.
  std::vector<std::uint16_t> entry_of;

  bool has(int symbol) const { return entry_of[static_cast<std::size_t>(symbol)] != 0; }
  bool has_escape() const { return !symbols.empty() && symbols.back() == kEscapeSymbol; }

  /// Rebuilds cum/entry_of from symbols/freqs. Throws LogicError if the
  /// invariants above are violated.
  void finalize();
};

/// Builds a normalized table from raw counts over ids [0, n_symbols).
/// Symbols whose count is at or below an escape threshold are folded into
/// ESCAPE (one literal byte per occurrence); the threshold is swept over a
/// small fixed set and the choice minimizing measured total cost — rANS
/// stream bits + escape literal bits + serialized table bytes — wins. The
/// sweep is a deterministic function of `counts` alone, so encoder and
/// decoder need no shared rule: the decoder just reads the table.
FreqTable build_table(const std::uint64_t* counts, int n_symbols);

/// Measured cost in bits of coding `counts` with `table` (cross-entropy
/// under the normalized frequencies + 8 bits per escaped occurrence), NOT
/// including the serialized table. Lets callers price alternative table
/// layouts (merged vs. split contexts) before committing to one; inside
/// this module it drives the escape-threshold sweep.
double table_stream_bits(const FreqTable& table, const std::uint64_t* counts, int n_symbols);

/// Serialized size of `table` in bytes (without writing it).
std::size_t serialized_table_bytes(const FreqTable& table);

/// Appends the serialized table: u16 entry count, then a nibble stream of
/// (delta id, freq - 1) varints, padded to a byte.
void serialize_table(const FreqTable& table, std::vector<std::uint8_t>& out);

/// Bounds-checked forward reader over a byte buffer. All read_* methods
/// throw aw4a::Error on exhaustion; nothing ever reads past `size`.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();  ///< little-endian
  std::uint32_t read_u32();  ///< little-endian
  /// Returns a pointer to `n` bytes and advances past them.
  const std::uint8_t* read_span(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// MSB-first raw bit stream (escape literals + JPEG-style magnitude bits).
class BitWriter {
 public:
  void put(std::uint32_t value, int nbits);
  /// Flushes the partial byte (zero-padded) and returns the buffer.
  std::vector<std::uint8_t> finish();
  std::size_t size_bytes() const { return bytes_.size() + (nbits_ > 0 ? 1 : 0); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint32_t acc_ = 0;
  int nbits_ = 0;
};

/// Out-of-line throw helpers so the inlined decode hot paths below stay
/// header-only without pulling util/error.h into every includer. Both throw
/// aw4a::Error (the recoverable taxonomy).
[[noreturn]] void throw_truncated_bits();    ///< "ans: truncated bit stream"
[[noreturn]] void throw_truncated_stream();  ///< "ans: truncated buffer"

class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  /// Reads `nbits` (<= 24) MSB-first; throws aw4a::Error past the end.
  /// Inline — this sits on the per-coefficient magnitude path of the codec's
  /// payload decode. Refills the 64-bit accumulator four bytes at a time;
  /// the MSB-first stream wants the first byte most significant, hence the
  /// byte swap.
  std::uint32_t get(int nbits) {
    if (nbits_ < nbits) {
      // Same throw condition as a per-byte loop: the buffer plus the
      // accumulator cannot cover the request.
      if (static_cast<std::size_t>(nbits - nbits_) > 8 * (size_ - pos_)) {
        throw_truncated_bits();
      }
      while (nbits_ < nbits) {
        if (size_ - pos_ >= 4) {
          std::uint32_t w;
          std::memcpy(&w, data_ + pos_, 4);
          acc_ = (acc_ << 32) | __builtin_bswap32(w);
          pos_ += 4;
          nbits_ += 32;
        } else {
          acc_ = (acc_ << 8) | data_[pos_++];
          nbits_ += 8;
        }
      }
    }
    nbits_ -= nbits;
    const std::uint32_t v = static_cast<std::uint32_t>(acc_ >> nbits_) &
                            ((nbits == 0) ? 0u : ((1u << nbits) - 1u));
    acc_ &= (std::uint64_t{1} << nbits_) - 1;
    return v;
  }
  /// Bytes logically touched so far (for exact-consumption checks). The
  /// reader refills its accumulator four bytes at a time, so `pos_` can run
  /// ahead of consumption; unspent whole bytes still in the accumulator are
  /// subtracted back out.
  std::size_t consumed_bytes() const {
    return pos_ - static_cast<std::size_t>(nbits_ / 8);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

/// One symbol of the interleaved sequence: which table codes it and its id
/// (callers substitute kEscapeSymbol for out-of-table symbols themselves,
/// writing the literal to their side stream).
struct SymbolRef {
  std::uint16_t table = 0;
  std::uint16_t symbol = 0;
};

struct EncodedStreams {
  /// Renormalization output in decoder read order (u16 little-endian pairs).
  std::vector<std::uint8_t> stream;
  /// Final encoder states == the decoder's initial states.
  std::array<std::uint32_t, kNumStreams> states{};
};

/// Encodes `ops` (forward order; ops[i] belongs to stream i % kNumStreams)
/// against `tables`. Every op's symbol must be present in its table.
EncodedStreams encode_interleaved(const std::vector<SymbolRef>& ops,
                                  const std::vector<FreqTable>& tables);

/// All tables of one payload concatenated: table t's packed metadata lives
/// at slots[t * kScaleTotal + slot], so a (table, slot) pair flattens to one
/// index off one base pointer. Every slot carries the entry covering it, so
/// arbitrary decoder states always resolve to *some* symbol.
struct PackedSet {
  std::vector<std::uint32_t> slots;  ///< n_tables * kScaleTotal
  /// Per table: the first slot owned by ESCAPE, kScaleTotal when it has none.
  std::vector<std::uint32_t> esc_start;

  PackedSet() = default;
  /// The decoder's view of finalize()d encoder tables.
  explicit PackedSet(const std::vector<FreqTable>& tables);
  int n_tables() const { return static_cast<int>(esc_start.size()); }
};

/// Parses `n_tables` consecutive serialized tables into a PackedSet.
/// Validates every table (entry count in [1, 257], ascending ids <= 256,
/// freqs >= 1 summing to exactly kScaleTotal) and throws aw4a::Error
/// otherwise. The result equals PackedSet(tables) for the tables that were
/// serialized.
PackedSet deserialize_packed_set(ByteReader& in, int n_tables);

/// Forward decoder over an EncodedStreams buffer and the PackedSet of the
/// tables that encoded it. The caller drives it with the same table
/// sequence the encoder used (which it reconstructs from the decoded data
/// itself — symbol contexts are deterministic in scan order).
class PackedDecoder {
 public:
  PackedDecoder(const std::array<std::uint32_t, kNumStreams>& states,
                const std::uint8_t* stream, std::size_t size, const PackedSet& set);

  /// Decodes the next symbol in sequence order from table `table_id`.
  /// Inline: it sits under the codec's symbol walk (one call per DC/AC
  /// symbol), where an out-of-line call costs as much as the lookup itself.
  int get(std::uint32_t table_id) {
    std::uint32_t& x = states_[lane_];
    lane_ = (lane_ + 1) & (kNumStreams - 1);
    const std::uint32_t slot = x & (kScaleTotal - 1);
    const std::size_t base = static_cast<std::size_t>(table_id) * kScaleTotal;
    const std::uint32_t p = slots_[base + slot];
    x = packed_freq(p) * (x >> kScaleBits) + packed_bias(p);
    // At most one refill per symbol: the pre-update state is >= kStateMin,
    // so freq * (x >> 12) >= 16, and one 16-bit word lifts any x >= 1 past
    // kStateMin. An `if` therefore does the work of a renormalization loop.
    if (x < kStateMin) {
      if (size_ - pos_ < 2) throw_truncated_stream();
      std::uint16_t w;
      std::memcpy(&w, stream_ + pos_, 2);
      pos_ += 2;
      x = (x << 16) | w;
    }
    return slot >= esc_start_[table_id] ? kEscapeSymbol
                                        : static_cast<int>(packed_symbol(p));
  }

  /// Throws aw4a::Error unless the stream is fully consumed and every state
  /// has returned to kStateMin — the end-of-payload integrity check.
  void expect_exhausted() const;

 private:
  std::array<std::uint32_t, kNumStreams> states_;
  std::uint32_t lane_ = 0;          ///< stream of the next symbol
  const std::uint32_t* slots_;      ///< PackedSet::slots.data()
  const std::uint32_t* esc_start_;  ///< PackedSet::esc_start.data()
  const std::uint8_t* stream_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace aw4a::imaging::ans
