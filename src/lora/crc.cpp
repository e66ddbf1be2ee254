#include "lora/crc.hpp"

#include <array>

namespace saiyan::lora {
namespace {

using CrcTables = std::array<std::array<std::uint16_t, 256>, 8>;

// Slicing-by-8 tables for the MSB-first polynomial 0x1021. t[0][b] is
// the register after shifting byte b through a zero register; t[k][b]
// is that value carried through k more zero bytes. A byte that sits k
// places before the end of an 8-byte block therefore contributes
// t[k][byte], and the eight contributions XOR together.
constexpr CrcTables make_tables() {
  CrcTables t{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned c = b << 8;
    for (int i = 0; i < 8; ++i) c = (c & 0x8000) ? (c << 1) ^ 0x1021 : c << 1;
    t[0][b] = static_cast<std::uint16_t>(c);
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint16_t prev = t[k - 1][b];
      t[k][b] = static_cast<std::uint16_t>((prev << 8) ^ t[0][prev >> 8]);
    }
  }
  return t;
}

constexpr CrcTables kTables = make_tables();

}  // namespace

std::uint16_t crc16(std::span<const std::uint8_t> data) {
  const auto& t = kTables;
  std::uint16_t crc = 0xFFFF;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // The 16-bit register folds into the first two bytes of each block.
  for (; n >= 8; n -= 8, p += 8) {
    crc = static_cast<std::uint16_t>(
        t[7][p[0] ^ (crc >> 8)] ^ t[6][p[1] ^ (crc & 0xFF)] ^ t[5][p[2]] ^
        t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]]);
  }
  for (; n > 0; --n, ++p) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ t[0][(crc >> 8) ^ *p]);
  }
  return crc;
}

std::vector<std::uint8_t> append_crc(std::vector<std::uint8_t> data) {
  const std::uint16_t c = crc16(data);
  data.push_back(static_cast<std::uint8_t>(c >> 8));
  data.push_back(static_cast<std::uint8_t>(c & 0xFF));
  return data;
}

bool check_and_strip_crc(std::span<const std::uint8_t> data,
                         std::vector<std::uint8_t>& payload) {
  payload.clear();
  if (data.size() < 2) return false;
  const std::span<const std::uint8_t> body = data.first(data.size() - 2);
  const std::uint16_t expect =
      static_cast<std::uint16_t>((data[data.size() - 2] << 8) | data[data.size() - 1]);
  if (crc16(body) != expect) return false;
  payload.assign(body.begin(), body.end());
  return true;
}

}  // namespace saiyan::lora
