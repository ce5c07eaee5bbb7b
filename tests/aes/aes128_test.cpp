#include "aes/aes128.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "aes/sbox.h"
#include "util/hex.h"
#include "util/rng.h"

namespace psc::aes {
namespace {

Block block_from_hex(const char* hex) {
  Block b{};
  EXPECT_TRUE(util::from_hex_exact(hex, b));
  return b;
}

TEST(Aes128, Fips197AppendixBVector) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  const Block expected = block_from_hex("3925841d02dc09fbdc118597196a0b32");
  Aes128 cipher(key);
  EXPECT_EQ(cipher.encrypt(pt), expected);
}

TEST(Aes128, Fips197AppendixC1Vector) {
  const Block key = block_from_hex("000102030405060708090a0b0c0d0e0f");
  const Block pt = block_from_hex("00112233445566778899aabbccddeeff");
  const Block expected = block_from_hex("69c4e0d86a7b0430d8cdb78070b4c55a");
  Aes128 cipher(key);
  EXPECT_EQ(cipher.encrypt(pt), expected);
  EXPECT_EQ(cipher.decrypt(expected), pt);
}

TEST(Aes128, KeyScheduleMatchesFips197) {
  // FIPS-197 appendix A.1 key expansion for 2b7e1516...
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto keys = Aes128::expand_key(key);
  EXPECT_EQ(keys[0], key);
  EXPECT_EQ(keys[1], block_from_hex("a0fafe1788542cb123a339392a6c7605"));
  EXPECT_EQ(keys[2], block_from_hex("f2c295f27a96b9435935807a7359f67f"));
  EXPECT_EQ(keys[10], block_from_hex("d014f9a8c9ee2589e13f0cc8b6630ca6"));
}

TEST(Aes128, MasterKeyFromRound10MatchesForward) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto keys = Aes128::expand_key(key);
  EXPECT_EQ(Aes128::master_key_from_round10(keys[10]), key);
}

TEST(Aes128, DecryptInvertsEncrypt) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  Aes128 cipher(key);
  EXPECT_EQ(cipher.decrypt(cipher.encrypt(pt)), pt);
}

TEST(Aes128, TraceMatchesPlainEncrypt) {
  const Block key = block_from_hex("000102030405060708090a0b0c0d0e0f");
  const Block pt = block_from_hex("00112233445566778899aabbccddeeff");
  Aes128 cipher(key);
  RoundTrace trace;
  const Block ct = cipher.encrypt_trace(pt, trace);
  EXPECT_EQ(ct, cipher.encrypt(pt));
  EXPECT_EQ(trace.post_add_round_key[num_rounds], ct);
}

TEST(Aes128, TraceRound0IsWhitenedPlaintext) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  Aes128 cipher(key);
  RoundTrace trace;
  cipher.encrypt_trace(pt, trace);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(trace.post_add_round_key[0][i],
              static_cast<std::uint8_t>(pt[i] ^ key[i]));
  }
}

TEST(Aes128, TraceSubBytesConsistent) {
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  Aes128 cipher(key);
  RoundTrace trace;
  cipher.encrypt_trace(pt, trace);
  // post_sub_bytes[0] is SubBytes applied to post_add_round_key[0].
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(trace.post_sub_bytes[0][i], sbox[trace.post_add_round_key[0][i]]);
  }
}

TEST(Aes128, TraceFirstRoundMatchesFips197) {
  // FIPS-197 appendix B: state after round 1 is a49c7ff2689f352b6b5bea43026a5049.
  const Block key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  Aes128 cipher(key);
  RoundTrace trace;
  cipher.encrypt_trace(pt, trace);
  EXPECT_EQ(trace.post_add_round_key[1],
            block_from_hex("a49c7ff2689f352b6b5bea43026a5049"));
}

TEST(Aes128, LastRoundStructure) {
  // ct = ShiftRows(SubBytes(s9)) ^ rk10, where s9 = post_add_round_key[9].
  const Block key = block_from_hex("000102030405060708090a0b0c0d0e0f");
  const Block pt = block_from_hex("00112233445566778899aabbccddeeff");
  Aes128 cipher(key);
  RoundTrace trace;
  const Block ct = cipher.encrypt_trace(pt, trace);
  Block s = trace.post_add_round_key[9];
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, cipher.round_keys()[10]);
  EXPECT_EQ(s, ct);
}

TEST(RoundPrimitives, ShiftRowsRoundTrip) {
  Block state;
  for (std::size_t i = 0; i < 16; ++i) {
    state[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  Block copy = state;
  shift_rows(copy);
  inv_shift_rows(copy);
  EXPECT_EQ(copy, state);
}

TEST(RoundPrimitives, ShiftRowsMovesRowsNotRow0) {
  Block state{};
  for (std::size_t i = 0; i < 16; ++i) {
    state[i] = static_cast<std::uint8_t>(i);
  }
  Block shifted = state;
  shift_rows(shifted);
  // Row 0 (indices 0,4,8,12) is unchanged.
  for (const std::size_t i : {0u, 4u, 8u, 12u}) {
    EXPECT_EQ(shifted[i], state[i]);
  }
  // Row 1 shifts left by one column: position 1 gets old column 1 row 1 = 5.
  EXPECT_EQ(shifted[1], state[5]);
  EXPECT_EQ(shifted[5], state[9]);
  EXPECT_EQ(shifted[13], state[1]);
}

TEST(RoundPrimitives, ShiftRowsSourceIsPermutation) {
  std::array<bool, 16> seen{};
  for (std::size_t i = 0; i < 16; ++i) {
    seen[shift_rows_source(i)] = true;
  }
  for (const bool hit : seen) {
    EXPECT_TRUE(hit);
  }
}

TEST(RoundPrimitives, MixColumnsKnownColumn) {
  // Canonical single-column test vector: db 13 53 45 -> 8e 4d a1 bc.
  Block state{};
  state[0] = 0xdb;
  state[1] = 0x13;
  state[2] = 0x53;
  state[3] = 0x45;
  mix_columns(state);
  EXPECT_EQ(state[0], 0x8e);
  EXPECT_EQ(state[1], 0x4d);
  EXPECT_EQ(state[2], 0xa1);
  EXPECT_EQ(state[3], 0xbc);
}

TEST(RoundPrimitives, MixColumnsRoundTrip) {
  Block state;
  for (std::size_t i = 0; i < 16; ++i) {
    state[i] = static_cast<std::uint8_t>(251 * i + 13);
  }
  Block copy = state;
  mix_columns(copy);
  inv_mix_columns(copy);
  EXPECT_EQ(copy, state);
}

TEST(RoundPrimitives, SubBytesRoundTrip) {
  Block state;
  for (std::size_t i = 0; i < 16; ++i) {
    state[i] = static_cast<std::uint8_t>(i * 31);
  }
  Block copy = state;
  sub_bytes(copy);
  inv_sub_bytes(copy);
  EXPECT_EQ(copy, state);
}

TEST(Hamming, ByteWeight) {
  EXPECT_EQ(hamming_weight(std::uint8_t{0x00}), 0);
  EXPECT_EQ(hamming_weight(std::uint8_t{0xff}), 8);
  EXPECT_EQ(hamming_weight(std::uint8_t{0x0f}), 4);
  EXPECT_EQ(hamming_weight(std::uint8_t{0xa5}), 4);
}

TEST(Hamming, BlockWeightAndDistance) {
  Block zeros{};
  Block ones;
  ones.fill(0xff);
  EXPECT_EQ(hamming_weight(zeros), 0);
  EXPECT_EQ(hamming_weight(ones), 128);
  EXPECT_EQ(hamming_distance(zeros, ones), 128);
  EXPECT_EQ(hamming_distance(ones, ones), 0);
}

// Oracle for the word-wide round kernel: the byte-wise round composition
// built from the public primitives, one transform at a time.
Block reference_encrypt_trace(const Aes128& cipher, const Block& plaintext,
                              RoundTrace& trace) {
  const auto& keys = cipher.round_keys();
  Block state = plaintext;
  add_round_key(state, keys[0]);
  trace.post_add_round_key[0] = state;
  for (std::size_t round = 1; round <= num_rounds; ++round) {
    sub_bytes(state);
    trace.post_sub_bytes[round - 1] = state;
    shift_rows(state);
    if (round < num_rounds) {
      mix_columns(state);
    }
    add_round_key(state, keys[round]);
    trace.post_add_round_key[round] = state;
  }
  return state;
}

// Oracle for the word-wide popcounts: one bit at a time.
int reference_hamming_distance(const Block& a, const Block& b) {
  int total = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const unsigned diff = static_cast<unsigned>(a[i] ^ b[i]);
    for (int bit = 0; bit < 8; ++bit) {
      total += static_cast<int>((diff >> bit) & 1U);
    }
  }
  return total;
}

int reference_hamming_weight(const Block& block) {
  return reference_hamming_distance(block, Block{});
}

TEST(AesKernelOracle, RoundTraceMatchesByteWiseComposition) {
  constexpr std::uint64_t keys = 64;
  constexpr int plaintexts_per_key = 10000;
  for (std::uint64_t k = 0; k < keys; ++k) {
    util::Xoshiro256 rng(0x5eed0000 + k);
    Block key;
    rng.fill_bytes(key);
    const Aes128 cipher(key);
    int mismatches = 0;
    for (int i = 0; i < plaintexts_per_key; ++i) {
      Block pt;
      rng.fill_bytes(pt);
      RoundTrace expected;
      const Block expected_ct = reference_encrypt_trace(cipher, pt, expected);
      RoundTrace actual;
      const Block ct = cipher.encrypt_trace(pt, actual);
      const bool same =
          ct == expected_ct && cipher.encrypt(pt) == expected_ct &&
          actual.post_add_round_key == expected.post_add_round_key &&
          actual.post_sub_bytes == expected.post_sub_bytes;
      mismatches += same ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0) << "key index " << k;
  }
}

TEST(AesKernelOracle, HammingMatchesBitLoop) {
  std::vector<Block> blocks;
  for (const std::uint8_t fill : {0x00, 0xff, 0x80, 0x01}) {
    Block b;
    b.fill(fill);
    blocks.push_back(b);
  }
  util::Xoshiro256 rng(0x4a3d);
  for (int i = 0; i < 4096; ++i) {
    Block b;
    rng.fill_bytes(b);
    blocks.push_back(b);
  }
  EXPECT_EQ(hamming_weight(blocks[2]), 16);
  EXPECT_EQ(hamming_distance(blocks[2], blocks[3]), 32);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    ASSERT_EQ(hamming_weight(blocks[i]), reference_hamming_weight(blocks[i]))
        << "block " << i;
    // Against the four fixed patterns and the next block.
    for (const std::size_t j :
         std::array<std::size_t, 5>{0, 1, 2, 3, (i + 1) % blocks.size()}) {
      ASSERT_EQ(hamming_distance(blocks[i], blocks[j]),
                reference_hamming_distance(blocks[i], blocks[j]))
          << "blocks " << i << ", " << j;
    }
  }
}

TEST(AesKernelOracle, ByteWeightMatchesBitLoop) {
  for (int v = 0; v < 256; ++v) {
    Block b{};
    b[0] = static_cast<std::uint8_t>(v);
    EXPECT_EQ(hamming_weight(static_cast<std::uint8_t>(v)),
              reference_hamming_weight(b));
  }
}

// Property sweeps over random keys/plaintexts.
class AesRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AesRoundTrip, DecryptInvertsEncrypt) {
  util::Xoshiro256 rng(GetParam());
  Block key;
  Block pt;
  rng.fill_bytes(key);
  rng.fill_bytes(pt);
  Aes128 cipher(key);
  EXPECT_EQ(cipher.decrypt(cipher.encrypt(pt)), pt);
}

TEST_P(AesRoundTrip, KeyScheduleInversion) {
  util::Xoshiro256 rng(GetParam() + 1000);
  Block key;
  rng.fill_bytes(key);
  const auto keys = Aes128::expand_key(key);
  EXPECT_EQ(Aes128::master_key_from_round10(keys[10]), key);
}

TEST_P(AesRoundTrip, TraceCiphertextConsistent) {
  util::Xoshiro256 rng(GetParam() + 2000);
  Block key;
  Block pt;
  rng.fill_bytes(key);
  rng.fill_bytes(pt);
  Aes128 cipher(key);
  RoundTrace trace;
  EXPECT_EQ(cipher.encrypt_trace(pt, trace), cipher.encrypt(pt));
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, AesRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 16));

}  // namespace
}  // namespace psc::aes
