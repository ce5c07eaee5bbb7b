// AES-128 (FIPS-197) with full intermediate-state capture.
//
// The simulator needs more than encrypt/decrypt: the leakage model consumes
// the true intermediate round states of every encryption, and the CPA
// attack needs the key schedule in both directions (a round-10 key recovered
// by a last-round attack must be inverted to the master key). The state is
// kept as a flat 16-byte block in FIPS input order (byte i holds state
// element s[i%4][i/4], i.e. columns are consecutive 4-byte groups).
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace psc::aes {

using Block = std::array<std::uint8_t, 16>;

// Number of AES-128 rounds.
inline constexpr int num_rounds = 10;

// All intermediate states of one encryption, for leakage evaluation.
//   post_add_round_key[r] : state after AddRoundKey of round r (r=0 is the
//                           initial whitening; r=10 is the ciphertext).
//   post_sub_bytes[r-1]   : state after SubBytes of round r (r=1..10).
struct RoundTrace {
  std::array<Block, num_rounds + 1> post_add_round_key{};
  std::array<Block, num_rounds> post_sub_bytes{};
};

// AES-128 block cipher with a fixed key.
class Aes128 {
 public:
  // Expands the 16-byte key into all 11 round keys.
  explicit Aes128(const Block& key) noexcept;

  // Encrypts one block.
  Block encrypt(const Block& plaintext) const noexcept;

  // Encrypts one block and records all intermediate states in `trace`.
  // Returns the ciphertext (== trace.post_add_round_key[10]).
  Block encrypt_trace(const Block& plaintext, RoundTrace& trace) const noexcept;

  // Decrypts one block (inverse cipher, FIPS-197 section 5.3).
  Block decrypt(const Block& ciphertext) const noexcept;

  // Round keys rk[0..10]; rk[0] is the master key.
  const std::array<Block, num_rounds + 1>& round_keys() const noexcept {
    return round_keys_;
  }

  // Forward key expansion (exposed for tests and for key-schedule
  // inversion checks).
  static std::array<Block, num_rounds + 1> expand_key(
      const Block& key) noexcept;

  // Reconstructs the master key from the round-10 key by running the key
  // schedule backwards. A last-round CPA recovers rk[10]; this maps it to
  // the AES-128 key the victim loaded.
  static Block master_key_from_round10(const Block& round10_key) noexcept;

 private:
  std::array<Block, num_rounds + 1> round_keys_{};
};

// In-place round primitives, exposed so that the ARMv8-flavour
// implementation and the attack-side power models can reuse the exact same
// transforms.
void sub_bytes(Block& state) noexcept;
void inv_sub_bytes(Block& state) noexcept;
void shift_rows(Block& state) noexcept;
void inv_shift_rows(Block& state) noexcept;
void mix_columns(Block& state) noexcept;
void inv_mix_columns(Block& state) noexcept;
void add_round_key(Block& state, const Block& round_key) noexcept;

// Index of the state byte that ShiftRows moves *into* position i: after
// ShiftRows, out[i] == in[shift_rows_source(i)].
constexpr std::size_t shift_rows_source(std::size_t i) noexcept {
  const std::size_t row = i % 4;
  const std::size_t col = i / 4;
  return row + 4 * ((col + row) % 4);
}

// Hamming weight of one byte.
constexpr int hamming_weight(std::uint8_t b) noexcept {
  return std::popcount(b);
}

// Hamming weight of a 16-byte block (0..128).
int hamming_weight(const Block& block) noexcept;

// Hamming distance between two blocks (0..128).
int hamming_distance(const Block& a, const Block& b) noexcept;

}  // namespace psc::aes
