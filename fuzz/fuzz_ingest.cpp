// libFuzzer harness over the ingest surface: TraceReader (strict and
// skip-and-resync modes) and PacketScanner.
//
// Contract under fuzzing: arbitrary bytes may be *rejected* (throw
// std::runtime_error from header parsing, return kCorrupt/kEof from
// the chunk stream, confirm nothing in the scanner) but must never
// crash, overflow, leak, or trip ASan/UBSan. Structured rejection is
// success; anything the sanitizers catch is a finding.
//
// The same file builds three ways:
//   * with clang -fsanitize=fuzzer: LLVMFuzzerTestOneInput links
//     against libFuzzer's driver (CI fuzz-smoke job);
//   * with SAIYAN_FUZZ_STANDALONE: a plain main() that replays corpus
//     files given as argv — the gcc-friendly ctest regression path;
//   * both entry points share run_one(), so a corpus crash reproduces
//     identically in either build.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/preamble_detector.hpp"
#include "core/receiver_chain.hpp"
#include "stream/packet_scanner.hpp"
#include "stream/trace.hpp"

namespace {

using namespace saiyan;

lora::PhyParams fuzz_phy() {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 1e6;  // 256 samples/symbol keeps inputs small
  p.bits_per_symbol = 2;
  return p;
}

void drive_reader(std::string_view bytes, bool recover) {
  try {
    stream::TraceReader reader =
        stream::TraceReader::from_bytes(bytes, recover);
    dsp::Signal chunk;
    // The chunk loop is bounded by construction (every iteration
    // advances or ends the stream); the guard only caps the work per
    // input so the fuzzer's throughput stays useful.
    for (int i = 0; i < (1 << 16); ++i) {
      const stream::ChunkStatus st = reader.next_chunk(chunk);
      if (st == stream::ChunkStatus::kEof ||
          st == stream::ChunkStatus::kCorrupt) {
        break;
      }
    }
  } catch (const std::exception&) {
    // Structured rejection of a malformed header/marker table.
  }
}

void drive_scanner(const std::uint8_t* data, std::size_t size) {
  // Heavy template construction happens once; each input gets a
  // reset() scanner, which is the production reuse path anyway.
  static core::SaiyanConfig cfg =
      core::SaiyanConfig::make(fuzz_phy(), core::Mode::kVanilla);
  static core::ReceiverChain chain(cfg);
  static core::PreambleDetector detector(chain);
  // The coarse gate is armed for the 8-symbol blocks the streaming
  // demodulator feeds; inputs that pick that block size exercise it.
  static stream::PacketScanner scanner(
      detector, 0.6, 8 * fuzz_phy().samples_per_symbol());
  scanner.reset();

  if (size < 4) return;
  // First 4 bytes steer the harness: block size and where to fire a
  // mid-stream desync (the gap-recovery path).
  const std::size_t block = 1 + (data[0] | (std::size_t{data[1]} << 8)) % 4096;
  const std::size_t desync_at_block = data[2];
  const std::size_t gap = std::size_t{data[3]} << 4;
  data += 4;
  size -= 4;

  std::vector<double> env(size / sizeof(double));
  std::memcpy(env.data(), data, env.size() * sizeof(double));
  for (double& v : env) {
    // The envelope comes from |IQ| upstream, so it is finite and
    // non-negative by construction; clamp the raw fuzz doubles into
    // that domain (NaN would just poison scores, hiding real bugs).
    if (!std::isfinite(v)) v = 0.0;
    v = std::fabs(v);
    if (v > 1e12) v = 1e12;
  }

  std::vector<stream::PacketSpan> spans;
  std::size_t block_index = 0;
  std::size_t posn = 0;
  while (posn < env.size()) {
    const std::size_t take = std::min(block, env.size() - posn);
    scanner.push_block({env.data() + posn, take}, spans);
    posn += take;
    if (++block_index == desync_at_block) {
      scanner.desync(scanner.samples_consumed() + gap);
    }
  }
  scanner.finish(spans);
}

void run_one(const std::uint8_t* data, std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  drive_reader(bytes, /*recover=*/false);
  drive_reader(bytes, /*recover=*/true);
  drive_scanner(data, size);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  run_one(data, size);
  return 0;
}

#if defined(SAIYAN_FUZZ_STANDALONE)

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string bytes = std::move(ss).str();
    run_one(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    ++replayed;
  }
  std::printf("fuzz_ingest: replayed %d corpus file(s) cleanly\n", replayed);
  return 0;
}

#endif  // SAIYAN_FUZZ_STANDALONE
