#include "aes/aes128.h"

#include <bit>
#include <cstring>

#include "aes/sbox.h"

namespace psc::aes {

namespace {

constexpr std::array<std::uint8_t, 11> rcon = {0x00, 0x01, 0x02, 0x04,
                                               0x08, 0x10, 0x20, 0x40,
                                               0x80, 0x1b, 0x36};

// Words of the expanded key, little-endian over the byte stream: word i is
// bytes [4i, 4i+4) of the concatenated round keys.
using Word = std::array<std::uint8_t, 4>;

Word sub_word(Word w) noexcept {
  for (auto& b : w) {
    b = sbox[b];
  }
  return w;
}

Word rot_word(Word w) noexcept {
  return {w[1], w[2], w[3], w[0]};
}

Word xor_word(Word a, const Word& b) noexcept {
  for (std::size_t i = 0; i < 4; ++i) {
    a[i] ^= b[i];
  }
  return a;
}

Word get_word(const std::array<Block, num_rounds + 1>& keys,
              std::size_t i) noexcept {
  const Block& blk = keys[i / 4];
  const std::size_t off = (i % 4) * 4;
  return {blk[off], blk[off + 1], blk[off + 2], blk[off + 3]};
}

void set_word(std::array<Block, num_rounds + 1>& keys, std::size_t i,
              const Word& w) noexcept {
  Block& blk = keys[i / 4];
  const std::size_t off = (i % 4) * 4;
  for (std::size_t b = 0; b < 4; ++b) {
    blk[off + b] = w[b];
  }
}

// Column c of the state as a word: byte 4c+r is bits [8r, 8r+8). Packing
// and unpacking go through bytes, so no result depends on host byte order.
std::uint32_t load_column(const Block& b, std::size_t c) noexcept {
  return static_cast<std::uint32_t>(b[4 * c]) |
         static_cast<std::uint32_t>(b[4 * c + 1]) << 8 |
         static_cast<std::uint32_t>(b[4 * c + 2]) << 16 |
         static_cast<std::uint32_t>(b[4 * c + 3]) << 24;
}

void store_column(Block& b, std::size_t c, std::uint32_t w) noexcept {
  for (std::size_t r = 0; r < 4; ++r) {
    b[4 * c + r] = static_cast<std::uint8_t>(w >> (8 * r));
  }
}

// Word whose byte r is byte r+k of `w` (rows rotate up by k).
constexpr std::uint32_t rotate_rows(std::uint32_t w, int k) noexcept {
  return std::rotr(w, 8 * k);
}

// xtime on each of the four bytes of `w` at once.
constexpr std::uint32_t xtime_word(std::uint32_t w) noexcept {
  return ((w & 0x7f7f7f7fU) << 1) ^ (((w >> 7) & 0x01010101U) * 0x1b);
}

// MixColumns of one column word: out_r = 2 a_r ^ 3 a_{r+1} ^ a_{r+2} ^
// a_{r+3} = xtime(a_r ^ a_{r+1}) ^ a_{r+1} ^ a_{r+2} ^ a_{r+3}.
constexpr std::uint32_t mix_column(std::uint32_t a) noexcept {
  const std::uint32_t a1 = rotate_rows(a, 1);
  return xtime_word(a ^ a1) ^ a1 ^ rotate_rows(a, 2) ^ rotate_rows(a, 3);
}

// One AES round on `state`: SubBytes, recorded in `sub` in input order,
// fused with the ShiftRows gather into output columns, then MixColumns
// (skipped in the final round) and AddRoundKey, all on column words.
Block cipher_round(const Block& state, const Block& round_key, bool mix,
                   Block& sub) noexcept {
  Block out;
  for (std::size_t c = 0; c < 4; ++c) {
    std::uint32_t column = 0;
    for (std::size_t r = 0; r < 4; ++r) {
      const std::size_t src = shift_rows_source(4 * c + r);
      const std::uint8_t s = sbox[state[src]];
      sub[src] = s;
      column |= static_cast<std::uint32_t>(s) << (8 * r);
    }
    if (mix) {
      column = mix_column(column);
    }
    store_column(out, c, column ^ load_column(round_key, c));
  }
  return out;
}

// Host-order 64-bit load of bytes [off, off+8); only used for popcounts,
// which do not depend on byte order.
std::uint64_t load_u64(const Block& b, std::size_t off) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, b.data() + off, sizeof w);
  return w;
}

// Set bits of lo and hi (SWAR). std::popcount would compile to a libgcc
// call on targets without a popcount instruction.
constexpr int block_popcount(std::uint64_t lo, std::uint64_t hi) noexcept {
  constexpr std::uint64_t m1 = 0x5555555555555555ULL;
  constexpr std::uint64_t m2 = 0x3333333333333333ULL;
  constexpr std::uint64_t m4 = 0x0f0f0f0f0f0f0f0fULL;
  lo -= (lo >> 1) & m1;
  hi -= (hi >> 1) & m1;
  lo = (lo & m2) + ((lo >> 2) & m2);
  hi = (hi & m2) + ((hi >> 2) & m2);
  // Each byte now holds at most 8 + 8 = 16 set bits of the pair; the
  // multiply sums the eight bytes into the top one (at most 128).
  const std::uint64_t bytes = ((lo + (lo >> 4)) & m4) + ((hi + (hi >> 4)) & m4);
  return static_cast<int>((bytes * 0x0101010101010101ULL) >> 56);
}

}  // namespace

void sub_bytes(Block& state) noexcept {
  for (auto& b : state) {
    b = sbox[b];
  }
}

void inv_sub_bytes(Block& state) noexcept {
  for (auto& b : state) {
    b = inv_sbox[b];
  }
}

void shift_rows(Block& state) noexcept {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = state[shift_rows_source(i)];
  }
  state = out;
}

void inv_shift_rows(Block& state) noexcept {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[shift_rows_source(i)] = state[i];
  }
  state = out;
}

void mix_columns(Block& state) noexcept {
  for (std::size_t c = 0; c < 4; ++c) {
    const std::uint8_t a0 = state[4 * c];
    const std::uint8_t a1 = state[4 * c + 1];
    const std::uint8_t a2 = state[4 * c + 2];
    const std::uint8_t a3 = state[4 * c + 3];
    state[4 * c] = static_cast<std::uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^
                                             a3);
    state[4 * c + 1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^
                                                 a2 ^ a3);
    state[4 * c + 2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^
                                                 xtime(a3) ^ a3);
    state[4 * c + 3] = static_cast<std::uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^
                                                 xtime(a3));
  }
}

void inv_mix_columns(Block& state) noexcept {
  for (std::size_t c = 0; c < 4; ++c) {
    const std::uint8_t a0 = state[4 * c];
    const std::uint8_t a1 = state[4 * c + 1];
    const std::uint8_t a2 = state[4 * c + 2];
    const std::uint8_t a3 = state[4 * c + 3];
    state[4 * c] = static_cast<std::uint8_t>(gf_mul(a0, 0x0e) ^
                                             gf_mul(a1, 0x0b) ^
                                             gf_mul(a2, 0x0d) ^
                                             gf_mul(a3, 0x09));
    state[4 * c + 1] = static_cast<std::uint8_t>(gf_mul(a0, 0x09) ^
                                                 gf_mul(a1, 0x0e) ^
                                                 gf_mul(a2, 0x0b) ^
                                                 gf_mul(a3, 0x0d));
    state[4 * c + 2] = static_cast<std::uint8_t>(gf_mul(a0, 0x0d) ^
                                                 gf_mul(a1, 0x09) ^
                                                 gf_mul(a2, 0x0e) ^
                                                 gf_mul(a3, 0x0b));
    state[4 * c + 3] = static_cast<std::uint8_t>(gf_mul(a0, 0x0b) ^
                                                 gf_mul(a1, 0x0d) ^
                                                 gf_mul(a2, 0x09) ^
                                                 gf_mul(a3, 0x0e));
  }
}

void add_round_key(Block& state, const Block& round_key) noexcept {
  for (std::size_t i = 0; i < 16; ++i) {
    state[i] ^= round_key[i];
  }
}

std::array<Block, num_rounds + 1> Aes128::expand_key(
    const Block& key) noexcept {
  std::array<Block, num_rounds + 1> keys{};
  keys[0] = key;
  for (std::size_t i = 4; i < 44; ++i) {
    Word temp = get_word(keys, i - 1);
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp));
      temp[0] ^= rcon[i / 4];
    }
    set_word(keys, i, xor_word(temp, get_word(keys, i - 4)));
  }
  return keys;
}

Block Aes128::master_key_from_round10(const Block& round10_key) noexcept {
  std::array<Block, num_rounds + 1> keys{};
  keys[num_rounds] = round10_key;
  // Walk the schedule backwards: w[i-4] = w[i] ^ f(w[i-1]). Descending i
  // guarantees both operands are already known.
  for (std::size_t i = 43; i >= 4; --i) {
    Word temp = get_word(keys, i - 1);
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp));
      temp[0] ^= rcon[i / 4];
    }
    set_word(keys, i - 4, xor_word(temp, get_word(keys, i)));
  }
  return keys[0];
}

Aes128::Aes128(const Block& key) noexcept : round_keys_(expand_key(key)) {}

Block Aes128::encrypt(const Block& plaintext) const noexcept {
  RoundTrace trace;
  return encrypt_trace(plaintext, trace);
}

Block Aes128::encrypt_trace(const Block& plaintext,
                            RoundTrace& trace) const noexcept {
  Block state = plaintext;
  add_round_key(state, round_keys_[0]);
  trace.post_add_round_key[0] = state;
  for (std::size_t round = 1; round <= num_rounds; ++round) {
    state = cipher_round(state, round_keys_[round], round < num_rounds,
                         trace.post_sub_bytes[round - 1]);
    trace.post_add_round_key[round] = state;
  }
  return state;
}

Block Aes128::decrypt(const Block& ciphertext) const noexcept {
  Block state = ciphertext;
  add_round_key(state, round_keys_[num_rounds]);
  inv_shift_rows(state);
  inv_sub_bytes(state);
  for (int round = num_rounds - 1; round >= 1; --round) {
    add_round_key(state, round_keys_[static_cast<std::size_t>(round)]);
    inv_mix_columns(state);
    inv_shift_rows(state);
    inv_sub_bytes(state);
  }
  add_round_key(state, round_keys_[0]);
  return state;
}

int hamming_weight(const Block& block) noexcept {
  return block_popcount(load_u64(block, 0), load_u64(block, 8));
}

int hamming_distance(const Block& a, const Block& b) noexcept {
  return block_popcount(load_u64(a, 0) ^ load_u64(b, 0),
                        load_u64(a, 8) ^ load_u64(b, 8));
}

}  // namespace psc::aes
