// Whitening / Hamming FEC / interleaver / CRC / gray code / frame
// codec: round trips and error-injection behaviour.
#include <gtest/gtest.h>

#include <bit>

#include "lora/crc.hpp"
#include "lora/frame.hpp"
#include "lora/hamming.hpp"
#include "lora/interleaver.hpp"
#include "lora/whitening.hpp"

namespace saiyan::lora {
namespace {

std::vector<std::uint8_t> test_bytes() {
  return {0x00, 0xFF, 0xA5, 0x5A, 0x12, 0x34, 0x56, 0x78, 0xDE, 0xAD};
}

TEST(Whitening, IsInvolution) {
  const auto data = test_bytes();
  EXPECT_EQ(dewhiten(whiten(data)), data);
}

TEST(Whitening, ActuallyScrambles) {
  const std::vector<std::uint8_t> zeros(32, 0x00);
  const auto w = whiten(zeros);
  int nonzero = 0;
  for (std::uint8_t b : w) nonzero += b != 0;
  EXPECT_GT(nonzero, 24);  // LFSR output is dense
}

TEST(Whitening, EmptyInput) {
  EXPECT_TRUE(whiten({}).empty());
}

class HammingRoundTrip : public ::testing::TestWithParam<FecRate> {};

TEST_P(HammingRoundTrip, AllNibblesRoundTrip) {
  const HammingCode code(GetParam());
  for (std::uint8_t n = 0; n < 16; ++n) {
    const HammingDecodeResult r = code.decode(code.encode(n));
    EXPECT_EQ(r.nibble, n);
    EXPECT_FALSE(r.error);
    EXPECT_FALSE(r.corrected);
  }
}

TEST_P(HammingRoundTrip, ByteStreamRoundTrip) {
  const HammingCode code(GetParam());
  const auto data = test_bytes();
  std::size_t errs = 99;
  EXPECT_EQ(code.decode_bits(code.encode_bits(data), &errs), data);
  EXPECT_EQ(errs, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllRates, HammingRoundTrip,
                         ::testing::Values(FecRate::kNone, FecRate::k4_5,
                                           FecRate::k4_6, FecRate::k4_7,
                                           FecRate::k4_8));

TEST(Hamming, H47CorrectsAnySingleBitError) {
  const HammingCode code(FecRate::k4_7);
  for (std::uint8_t n = 0; n < 16; ++n) {
    const std::uint8_t cw = code.encode(n);
    for (int bit = 0; bit < 7; ++bit) {
      const std::uint8_t corrupted = cw ^ static_cast<std::uint8_t>(1u << bit);
      const HammingDecodeResult r = code.decode(corrupted);
      EXPECT_EQ(r.nibble, n) << "nibble " << int(n) << " bit " << bit;
      EXPECT_TRUE(r.corrected);
      EXPECT_FALSE(r.error);
    }
  }
}

TEST(Hamming, H48CorrectsSingleError) {
  const HammingCode code(FecRate::k4_8);
  for (std::uint8_t n = 0; n < 16; ++n) {
    const std::uint8_t cw = code.encode(n);
    for (int bit = 0; bit < 8; ++bit) {
      const HammingDecodeResult r =
          code.decode(cw ^ static_cast<std::uint8_t>(1u << bit));
      EXPECT_EQ(r.nibble, n);
    }
  }
}

TEST(Hamming, H45DetectsSingleError) {
  const HammingCode code(FecRate::k4_5);
  const std::uint8_t cw = code.encode(0xA);
  const HammingDecodeResult r = code.decode(cw ^ 0x01);
  EXPECT_TRUE(r.error);
}

TEST(Hamming, RejectsNonNibble) {
  const HammingCode code(FecRate::k4_7);
  EXPECT_THROW(code.encode(0x10), std::invalid_argument);
}

TEST(Interleaver, RoundTripWholeBlocks) {
  std::vector<std::uint8_t> bits(7 * 8 * 3);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (i * 13 + 1) % 2;
  EXPECT_EQ(deinterleave(interleave(bits, 7, 8), 7, 8), bits);
}

TEST(Interleaver, PartialTailPassesThrough) {
  std::vector<std::uint8_t> bits(20, 1);  // less than one 7x8 block
  EXPECT_EQ(interleave(bits, 7, 8), bits);
}

TEST(Interleaver, SpreadsBurstErrors) {
  // A burst of consecutive corrupted positions after interleaving must
  // not hit the same codeword (row) more than twice.
  const std::size_t rows = 8;
  const std::size_t cols = 8;
  std::vector<std::uint8_t> bits(rows * cols, 0);
  auto inter = interleave(bits, rows, cols);
  // Corrupt a burst of `rows` consecutive interleaved positions.
  std::vector<int> hits_per_row(rows, 0);
  for (std::size_t pos = 8; pos < 8 + rows; ++pos) {
    // Where does this position land after deinterleaving?
    std::vector<std::uint8_t> probe(rows * cols, 0);
    probe[pos] = 1;
    const auto de = deinterleave(probe, rows, cols);
    for (std::size_t i = 0; i < de.size(); ++i) {
      if (de[i]) hits_per_row[i / cols]++;
    }
  }
  for (std::size_t r = 0; r < rows; ++r) EXPECT_LE(hits_per_row[r], 2);
}

TEST(Interleaver, RejectsZeroGeometry) {
  std::vector<std::uint8_t> bits(8, 0);
  EXPECT_THROW(interleave(bits, 0, 4), std::invalid_argument);
  EXPECT_THROW(deinterleave(bits, 4, 0), std::invalid_argument);
}

TEST(Crc, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::vector<std::uint8_t> digits = {'1', '2', '3', '4', '5',
                                            '6', '7', '8', '9'};
  EXPECT_EQ(crc16(digits), 0x29B1);
}

// Bit-serial CRC-16/CCITT-FALSE: the definition the table-driven
// crc16 must reproduce.
std::uint16_t crc16_reference(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t b : data) {
    crc ^= static_cast<std::uint16_t>(b) << 8;
    for (int i = 0; i < 8; ++i) {
      crc = static_cast<std::uint16_t>((crc & 0x8000) ? (crc << 1) ^ 0x1021
                                                      : crc << 1);
    }
  }
  return crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> out(n);
  std::uint32_t s = seed;
  for (std::uint8_t& b : out) {
    s = s * 1664525u + 1013904223u;  // LCG; the top byte is well mixed
    b = static_cast<std::uint8_t>(s >> 24);
  }
  return out;
}

TEST(Crc, MatchesBitSerialAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = random_bytes(64 + 8, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(crc16(s), crc16_reference(s))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc, MatchesBitSerialOverOneTraceChunk) {
  const std::vector<std::uint8_t> chunk = random_bytes(256 * 1024, 11);
  EXPECT_EQ(crc16(chunk), crc16_reference(chunk));
}

TEST(Crc, ReferenceKnownVector) {
  const std::vector<std::uint8_t> digits = {'1', '2', '3', '4', '5',
                                            '6', '7', '8', '9'};
  EXPECT_EQ(crc16_reference(digits), 0x29B1);
}

TEST(Crc, AppendAndStrip) {
  const auto data = test_bytes();
  const auto framed = append_crc(data);
  EXPECT_EQ(framed.size(), data.size() + 2);
  std::vector<std::uint8_t> payload;
  EXPECT_TRUE(check_and_strip_crc(framed, payload));
  EXPECT_EQ(payload, data);
}

TEST(Crc, DetectsCorruption) {
  auto framed = append_crc(test_bytes());
  framed[3] ^= 0x40;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(check_and_strip_crc(framed, payload));
  EXPECT_TRUE(payload.empty());
}

TEST(Crc, ShortInputFails) {
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(check_and_strip_crc(std::vector<std::uint8_t>{0x12}, payload));
}

TEST(Gray, RoundTripAndAdjacency) {
  for (std::uint32_t v = 0; v < 64; ++v) {
    EXPECT_EQ(gray_decode(gray_encode(v)), v);
  }
  // Adjacent values differ in exactly one bit after gray coding.
  for (std::uint32_t v = 0; v + 1 < 32; ++v) {
    const std::uint32_t diff = gray_encode(v) ^ gray_encode(v + 1);
    EXPECT_EQ(std::popcount(diff), 1);
  }
}

class FrameCodecRoundTrip : public ::testing::TestWithParam<std::tuple<int, FecRate>> {};

TEST_P(FrameCodecRoundTrip, EncodeDecode) {
  const auto [k, fec] = GetParam();
  PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = k;
  p.fec = fec;
  const FrameCodec codec(p);
  const auto payload = test_bytes();
  const auto symbols = codec.encode(payload);
  EXPECT_EQ(symbols.size(), codec.symbols_for_payload(payload.size()));
  for (std::uint32_t s : symbols) EXPECT_LT(s, p.symbol_alphabet());
  FrameDecodeStats stats;
  const auto decoded = codec.decode(symbols, &stats);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
  EXPECT_TRUE(stats.crc_ok);
  EXPECT_EQ(stats.codeword_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    KFecGrid, FrameCodecRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(FecRate::kNone, FecRate::k4_5,
                                         FecRate::k4_7, FecRate::k4_8)));

TEST(FrameCodec, CorrectsSymbolErrorWithH48) {
  PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 1;  // one bit per symbol: a symbol error is a bit flip
  p.fec = FecRate::k4_8;
  const FrameCodec codec(p);
  const auto payload = test_bytes();
  auto symbols = codec.encode(payload);
  symbols[5] ^= 1u;  // single symbol error
  FrameDecodeStats stats;
  const auto decoded = codec.decode(symbols, &stats);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
  EXPECT_GE(stats.codeword_errors, 1u);
}

TEST(FrameCodec, CrcCatchesUncorrectableDamage) {
  PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 5;
  p.fec = FecRate::kNone;  // no protection
  const FrameCodec codec(p);
  auto symbols = codec.encode(test_bytes());
  symbols[0] ^= 0x1F;
  symbols[1] ^= 0x1F;
  EXPECT_FALSE(codec.decode(symbols).has_value());
}

}  // namespace
}  // namespace saiyan::lora
