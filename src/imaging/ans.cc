#include "imaging/ans.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>

#include "util/error.h"

namespace aw4a::imaging::ans {

namespace {

// Nibble varint: 3 data bits per nibble, low group first, high bit of the
// nibble is the continuation flag. freq-1 <= 4095 needs at most 4 nibbles.
void push_varint(std::vector<std::uint8_t>& nibbles, std::uint32_t v) {
  for (;;) {
    const std::uint8_t nib = static_cast<std::uint8_t>(v & 7u);
    v >>= 3;
    if (v != 0) {
      nibbles.push_back(nib | 8u);
    } else {
      nibbles.push_back(nib);
      return;
    }
  }
}

std::size_t varint_nibbles(std::uint32_t v) {
  std::size_t n = 1;
  while (v >>= 3) ++n;
  return n;
}

class NibbleReader {
 public:
  explicit NibbleReader(ByteReader& in) : in_(in) {}

  std::uint32_t read_varint() {
    std::uint32_t v = 0;
    for (int shift = 0;; shift += 3) {
      // 4096 normalized slots need 12 data bits; anything longer is corrupt.
      if (shift > 12) throw Error("ans: varint overflow in table");
      const std::uint8_t nib = next();
      v |= static_cast<std::uint32_t>(nib & 7u) << shift;
      if ((nib & 8u) == 0) return v;
    }
  }

 private:
  std::uint8_t next() {
    if (!have_) {
      cur_ = in_.read_u8();
      have_ = true;
      return cur_ & 0x0Fu;
    }
    have_ = false;
    return cur_ >> 4;
  }

  ByteReader& in_;
  std::uint8_t cur_ = 0;
  bool have_ = false;
};

// Largest-remainder normalization of positive counts to exactly
// kScaleTotal, every kept symbol getting at least one slot. Deterministic:
// ties broken by entry index.
std::vector<std::uint32_t> normalize_counts(const std::vector<std::uint64_t>& counts) {
  const std::size_t n = counts.size();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  AW4A_EXPECTS(n >= 1 && n <= kScaleTotal && total > 0);

  std::vector<std::uint32_t> freqs(n);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t f = (counts[i] * kScaleTotal) / total;
    freqs[i] = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, f));
    assigned += freqs[i];
  }
  // Fix the rounding deficit/surplus one slot at a time, moving the slot
  // where it changes measured bits the least: add where count/freq is
  // largest, remove where count/(freq-1) is smallest (freq > 1 only).
  while (assigned < static_cast<std::int64_t>(kScaleTotal)) {
    std::size_t best = 0;
    double best_gain = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double gain = static_cast<double>(counts[i]) / freqs[i];
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    ++freqs[best];
    ++assigned;
  }
  while (assigned > static_cast<std::int64_t>(kScaleTotal)) {
    std::size_t best = n;
    double best_loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (freqs[i] <= 1) continue;
      const double loss = static_cast<double>(counts[i]) / (freqs[i] - 1);
      if (best == n || loss < best_loss) {
        best_loss = loss;
        best = i;
      }
    }
    AW4A_EXPECTS(best < n);  // n <= kScaleTotal guarantees a donor exists
    --freqs[best];
    --assigned;
  }
  return freqs;
}

/// A finalize()d sweep candidate over already-folded symbols (ESCAPE last if
/// present) and their counts.
FreqTable candidate_from_folded(std::vector<std::uint16_t> symbols,
                                const std::vector<std::uint64_t>& counts) {
  const std::vector<std::uint32_t> freqs = normalize_counts(counts);
  FreqTable t;
  t.symbols = std::move(symbols);
  t.freqs.assign(freqs.begin(), freqs.end());
  t.finalize();
  return t;
}

/// Writes one table entry's run of packed slots, [start, start + freq), into
/// `slots` (the table's kScaleTotal-slot block), and records ESCAPE's start.
/// The one place slots are packed: PackedSet(tables) and the parser share it.
void pack_entry(std::uint32_t* slots, std::uint32_t& esc_start, std::uint32_t start,
                std::uint32_t freq, std::uint32_t symbol) {
  if (symbol == kEscapeSymbol) esc_start = start;
  for (std::uint32_t s = 0; s < freq; ++s) slots[start + s] = pack_slot(freq, s, symbol);
}

}  // namespace

void FreqTable::finalize() {
  AW4A_EXPECTS(!symbols.empty() && symbols.size() == freqs.size());
  cum.resize(symbols.size());
  entry_of.assign(kEscapeSymbol + 1, 0);
  std::uint32_t c = 0;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    AW4A_EXPECTS(symbols[i] <= kEscapeSymbol && freqs[i] >= 1);
    AW4A_EXPECTS(i == 0 || symbols[i] > symbols[i - 1]);
    cum[i] = static_cast<std::uint16_t>(c);
    entry_of[symbols[i]] = static_cast<std::uint16_t>(i + 1);
    c += freqs[i];
  }
  AW4A_EXPECTS(c == kScaleTotal);
}

std::size_t serialized_table_bytes(const FreqTable& table) {
  std::size_t nibbles = 0;
  int prev = -1;
  for (std::size_t i = 0; i < table.symbols.size(); ++i) {
    nibbles += varint_nibbles(static_cast<std::uint32_t>(table.symbols[i] - prev - 1));
    nibbles += varint_nibbles(static_cast<std::uint32_t>(table.freqs[i] - 1));
    prev = table.symbols[i];
  }
  return 2 + (nibbles + 1) / 2;
}

void serialize_table(const FreqTable& table, std::vector<std::uint8_t>& out) {
  const std::size_t n = table.symbols.size();
  out.push_back(static_cast<std::uint8_t>(n & 0xFF));
  out.push_back(static_cast<std::uint8_t>(n >> 8));
  std::vector<std::uint8_t> nibbles;
  nibbles.reserve(n * 4);
  int prev = -1;
  for (std::size_t i = 0; i < n; ++i) {
    push_varint(nibbles, static_cast<std::uint32_t>(table.symbols[i] - prev - 1));
    push_varint(nibbles, static_cast<std::uint32_t>(table.freqs[i] - 1));
    prev = table.symbols[i];
  }
  for (std::size_t i = 0; i < nibbles.size(); i += 2) {
    std::uint8_t byte = nibbles[i];
    if (i + 1 < nibbles.size()) byte |= static_cast<std::uint8_t>(nibbles[i + 1] << 4);
    out.push_back(byte);
  }
}

double table_stream_bits(const FreqTable& table, const std::uint64_t* counts, int n_symbols) {
  double bits = 0;
  for (int s = 0; s < n_symbols; ++s) {
    if (counts[s] == 0) continue;
    if (table.has(s)) {
      const std::uint16_t f = table.freqs[table.entry_of[s] - 1];
      bits += static_cast<double>(counts[s]) * (kScaleBits - std::log2(static_cast<double>(f)));
    } else {
      AW4A_EXPECTS(table.has_escape());
      const std::uint16_t f = table.freqs[table.entry_of[kEscapeSymbol] - 1];
      bits += static_cast<double>(counts[s]) *
              (kScaleBits - std::log2(static_cast<double>(f)) + 8.0);
    }
  }
  return bits;
}

FreqTable build_table(const std::uint64_t* counts, int n_symbols) {
  AW4A_EXPECTS(n_symbols >= 1 && n_symbols <= kEscapeSymbol);
  bool any = false;
  for (int s = 0; s < n_symbols; ++s) any = any || counts[s] != 0;
  if (!any) {
    // Degenerate all-zero histogram: a pure-ESCAPE table keeps the format
    // uniform (every context slot serializes a valid table) at 3 bytes.
    FreqTable t;
    t.symbols = {static_cast<std::uint16_t>(kEscapeSymbol)};
    t.freqs = {static_cast<std::uint16_t>(kScaleTotal)};
    t.finalize();
    return t;
  }
  FreqTable best;
  double best_cost = -1.0;
  for (const std::uint64_t threshold : {0ull, 1ull, 2ull, 4ull, 8ull}) {
    std::vector<std::uint16_t> symbols;
    std::vector<std::uint64_t> kept;
    std::uint64_t escaped = 0;
    for (int s = 0; s < n_symbols; ++s) {
      if (counts[s] == 0) continue;
      if (threshold > 0 && counts[s] <= threshold) {
        escaped += counts[s];
      } else {
        symbols.push_back(static_cast<std::uint16_t>(s));
        kept.push_back(counts[s]);
      }
    }
    if (escaped > 0 || symbols.empty()) {
      // Even with nothing folded a table may be all-escape (threshold ate
      // every symbol); ESCAPE then carries the whole load as literals.
      if (escaped == 0) continue;
      symbols.push_back(static_cast<std::uint16_t>(kEscapeSymbol));
      kept.push_back(escaped);
    }
    FreqTable t = candidate_from_folded(std::move(symbols), kept);
    const double cost =
        table_stream_bits(t, counts, n_symbols) + 8.0 * serialized_table_bytes(t);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best = std::move(t);
    }
  }
  AW4A_EXPECTS(best_cost >= 0);  // threshold 0 always yields a table
  return best;
}

std::uint8_t ByteReader::read_u8() {
  if (pos_ >= size_) throw Error("ans: truncated buffer");
  return data_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  if (size_ - pos_ < 2 || pos_ > size_) throw Error("ans: truncated buffer");
  std::uint16_t v;
  std::memcpy(&v, data_ + pos_, 2);  // little-endian wire == host order
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  if (size_ - pos_ < 4 || pos_ > size_) throw Error("ans: truncated buffer");
  std::uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);  // little-endian wire == host order
  pos_ += 4;
  return v;
}

const std::uint8_t* ByteReader::read_span(std::size_t n) {
  if (size_ - pos_ < n || pos_ > size_) throw Error("ans: truncated buffer");
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

void BitWriter::put(std::uint32_t value, int nbits) {
  AW4A_EXPECTS(nbits >= 0 && nbits <= 24 && (nbits == 32 || value < (1u << nbits)));
  acc_ = (acc_ << nbits) | value;
  nbits_ += nbits;
  while (nbits_ >= 8) {
    nbits_ -= 8;
    bytes_.push_back(static_cast<std::uint8_t>(acc_ >> nbits_));
  }
  acc_ &= (1u << nbits_) - 1;
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (nbits_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8 - nbits_)));
    acc_ = 0;
    nbits_ = 0;
  }
  return std::move(bytes_);
}

void throw_truncated_bits() { throw Error("ans: truncated bit stream"); }
void throw_truncated_stream() { throw Error("ans: truncated buffer"); }

EncodedStreams encode_interleaved(const std::vector<SymbolRef>& ops,
                                  const std::vector<FreqTable>& tables) {
  EncodedStreams out;
  out.states.fill(kStateMin);
  std::vector<std::uint16_t> emitted;
  emitted.reserve(ops.size() / 2 + 8);
  // Reverse order: the decoder consumes renormalization words in exactly
  // the reverse of emission order, so walking ops backward (still touching
  // stream i % kNumStreams for op i) makes the forward decode line up.
  for (std::size_t i = ops.size(); i-- > 0;) {
    const SymbolRef& op = ops[i];
    AW4A_EXPECTS(op.table < tables.size());
    const FreqTable& t = tables[op.table];
    AW4A_EXPECTS(t.has(op.symbol));
    const std::size_t e = t.entry_of[op.symbol] - 1;
    const std::uint32_t f = t.freqs[e];
    std::uint32_t& x = out.states[i % kNumStreams];
    const std::uint64_t x_max =
        (static_cast<std::uint64_t>(kStateMin >> kScaleBits) << 16) * f;
    while (x >= x_max) {
      emitted.push_back(static_cast<std::uint16_t>(x));
      x >>= 16;
    }
    x = ((x / f) << kScaleBits) + (x % f) + t.cum[e];
  }
  out.stream.reserve(emitted.size() * 2);
  for (std::size_t k = emitted.size(); k-- > 0;) {
    out.stream.push_back(static_cast<std::uint8_t>(emitted[k] & 0xFF));
    out.stream.push_back(static_cast<std::uint8_t>(emitted[k] >> 8));
  }
  return out;
}

PackedSet deserialize_packed_set(ByteReader& in, int n_tables) {
  AW4A_EXPECTS(n_tables >= 1);
  PackedSet set;
  set.slots.resize(static_cast<std::size_t>(n_tables) * kScaleTotal);
  set.esc_start.assign(static_cast<std::size_t>(n_tables), kScaleTotal);
  for (int t = 0; t < n_tables; ++t) {
    std::uint32_t* slots = set.slots.data() + static_cast<std::size_t>(t) * kScaleTotal;
    const std::uint16_t n = in.read_u16();
    if (n == 0 || n > kEscapeSymbol + 1) throw Error("ans: bad table entry count");
    NibbleReader nr(in);
    int prev = -1;
    std::uint32_t total = 0;
    for (std::uint16_t i = 0; i < n; ++i) {
      const std::uint32_t id = static_cast<std::uint32_t>(prev + 1) + nr.read_varint();
      if (id > kEscapeSymbol) throw Error("ans: table symbol id out of range");
      const std::uint32_t freq = nr.read_varint() + 1;
      if (total + freq > kScaleTotal) throw Error("ans: table frequencies exceed total");
      pack_entry(slots, set.esc_start[t], total, freq, id);
      total += freq;
      prev = static_cast<int>(id);
    }
    if (total != kScaleTotal) throw Error("ans: table frequencies do not sum to total");
  }
  return set;
}

PackedSet::PackedSet(const std::vector<FreqTable>& tables) {
  AW4A_EXPECTS(!tables.empty());
  slots.resize(tables.size() * static_cast<std::size_t>(kScaleTotal));
  esc_start.assign(tables.size(), kScaleTotal);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const FreqTable& table = tables[t];
    AW4A_EXPECTS(table.cum.size() == table.symbols.size());  // finalize()d
    for (std::size_t e = 0; e < table.symbols.size(); ++e) {
      pack_entry(slots.data() + t * kScaleTotal, esc_start[t], table.cum[e], table.freqs[e],
                 table.symbols[e]);
    }
  }
}

PackedDecoder::PackedDecoder(const std::array<std::uint32_t, kNumStreams>& states,
                             const std::uint8_t* stream, std::size_t size,
                             const PackedSet& set)
    : states_(states),
      slots_(set.slots.data()),
      esc_start_(set.esc_start.data()),
      stream_(stream),
      size_(size) {
  for (const std::uint32_t x : states_) {
    if (x < kStateMin) throw Error("ans: initial state below renormalization bound");
  }
}

void PackedDecoder::expect_exhausted() const {
  if (pos_ != size_) throw Error("ans: trailing bytes after final symbol");
  for (const std::uint32_t x : states_) {
    if (x != kStateMin) throw Error("ans: stream integrity check failed");
  }
}

}  // namespace aw4a::imaging::ans
