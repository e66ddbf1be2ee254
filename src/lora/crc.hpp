// CRC-16/CCITT-FALSE — LoRa payload integrity check.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace saiyan::lora {

/// CRC-16 with polynomial 0x1021, init 0xFFFF, no reflection, no xorout.
/// Table-driven (slicing-by-8); equal to the bit-serial definition.
std::uint16_t crc16(std::span<const std::uint8_t> data);

/// Append a big-endian CRC-16 to a byte vector.
std::vector<std::uint8_t> append_crc(std::vector<std::uint8_t> data);

/// Verify and strip a trailing CRC-16; returns false (and leaves
/// `payload` empty) on mismatch or short input.
bool check_and_strip_crc(std::span<const std::uint8_t> data,
                         std::vector<std::uint8_t>& payload);

}  // namespace saiyan::lora
