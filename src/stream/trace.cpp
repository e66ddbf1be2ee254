#include "stream/trace.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "lora/crc.hpp"

namespace saiyan::stream {

namespace {

constexpr char kMagic[8] = {'S', 'A', 'I', 'Y', 'T', 'R', 'C', '1'};
constexpr std::uint32_t kVersionF64 = 1;  // float64 IQ pairs (bit-exact)
constexpr std::uint32_t kVersionF32 = 2;  // float32 IQ pairs (half size)
// Sanity bound on a single chunk; shared with config validation
// through the public header.
constexpr std::uint32_t kMaxChunkSamples = kMaxTraceChunkSamples;
constexpr std::uint64_t kMaxMarkers = 1u << 20;
constexpr std::uint32_t kMaxMarkerSymbols = 1u << 16;
// Serialized sizes: chunk record header and the fixed part of one
// marker record — the denominators of the file-size bounds below.
constexpr std::uint64_t kChunkHeaderBytes = 8;
constexpr std::uint64_t kMarkerMinBytes = 16;
// Resync scans the byte stream through a sliding window this large;
// candidate headers straddling the edge are covered by re-reading the
// last (kChunkHeaderBytes - 1) bytes into the next window.
constexpr std::size_t kResyncWindow = 1u << 20;

template <typename T>
void put(std::ofstream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

}  // namespace

const char* to_string(IngestError err) {
  switch (err) {
    case IngestError::kNone: return "none";
    case IngestError::kBadMagic: return "bad-magic";
    case IngestError::kBadVersion: return "bad-version";
    case IngestError::kBadHeader: return "bad-header";
    case IngestError::kBadMarkerTable: return "bad-marker-table";
    case IngestError::kChunkHeader: return "chunk-header";
    case IngestError::kChunkCrc: return "chunk-crc";
    case IngestError::kChunkTruncated: return "chunk-truncated";
    case IngestError::kTotalMismatch: return "total-mismatch";
    case IngestError::kCount: break;
  }
  return "invalid";
}

void record_first_error(std::string& error, std::string_view what) noexcept {
  if (!error.empty()) return;
  try {
    error = what;
  } catch (...) {
    // Small-string storage: the one-char marker needs no allocation.
    error.clear();
    error += '!';
  }
}

TraceWriter::TraceWriter(const std::string& path, const TraceMeta& meta,
                         const std::vector<TraceMarker>& markers) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("TraceWriter: cannot open " + path);
  meta.phy.validate();
  if (meta.payload_symbols == 0 || meta.payload_symbols > kMaxMarkerSymbols) {
    // Mirror the reader's header bounds: never write an unreadable trace.
    throw std::invalid_argument("TraceWriter: bad payload_symbols");
  }
  float32_ = meta.float32_samples;
  out_.write(kMagic, sizeof(kMagic));
  put(out_, float32_ ? kVersionF32 : kVersionF64);
  put(out_, static_cast<std::uint32_t>(meta.mode));
  put(out_, meta.phy.sample_rate_hz);
  put(out_, static_cast<std::uint32_t>(meta.phy.spreading_factor));
  put(out_, meta.phy.bandwidth_hz);
  put(out_, static_cast<std::uint32_t>(meta.phy.bits_per_symbol));
  put(out_, static_cast<std::uint32_t>(meta.phy.preamble_symbols));
  put(out_, meta.phy.sync_symbols);
  put(out_, static_cast<std::uint32_t>(meta.phy.fec));
  put(out_, static_cast<std::uint32_t>(meta.payload_symbols));
  total_samples_pos_ = out_.tellp();
  put(out_, std::uint64_t{0});  // total_samples, patched by finish()
  // Enforce the reader's sanity bounds at write time so a writer can
  // never produce a trace its own reader rejects as malformed.
  if (markers.size() > kMaxMarkers) {
    throw std::invalid_argument("TraceWriter: too many markers");
  }
  put(out_, static_cast<std::uint64_t>(markers.size()));
  for (const TraceMarker& m : markers) {
    if (m.symbols.size() > kMaxMarkerSymbols) {
      throw std::invalid_argument("TraceWriter: marker payload too long");
    }
    put(out_, m.sample_offset);
    put(out_, m.tag_id);
    put(out_, static_cast<std::uint32_t>(m.symbols.size()));
    out_.write(reinterpret_cast<const char*>(m.symbols.data()),
               static_cast<std::streamsize>(m.symbols.size() *
                                            sizeof(std::uint32_t)));
  }
  if (!out_) throw std::runtime_error("TraceWriter: header write failed");
}

TraceWriter::~TraceWriter() {
  // A destructor must not throw; a caller that needs the outcome
  // calls finish() first.
  close_();
}

void TraceWriter::write_chunk(std::span<const dsp::Complex> samples) {
  if (closed_) throw std::logic_error("TraceWriter: write after close");
  if (samples.empty()) return;
  if (samples.size() > kMaxChunkSamples) {
    throw std::invalid_argument("TraceWriter: chunk too large");
  }
  const std::uint8_t* bytes;
  std::size_t n_bytes;
  if (float32_) {
    f32_scratch_.resize(2 * samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      f32_scratch_[2 * i] = static_cast<float>(samples[i].real());
      f32_scratch_[2 * i + 1] = static_cast<float>(samples[i].imag());
    }
    bytes = reinterpret_cast<const std::uint8_t*>(f32_scratch_.data());
    n_bytes = f32_scratch_.size() * sizeof(float);
  } else {
    bytes = reinterpret_cast<const std::uint8_t*>(samples.data());
    n_bytes = samples.size() * sizeof(dsp::Complex);
  }
  const std::uint16_t crc = lora::crc16({bytes, n_bytes});
  put(out_, static_cast<std::uint32_t>(samples.size()));
  put(out_, crc);
  put(out_, std::uint16_t{0});  // reserved / alignment
  out_.write(reinterpret_cast<const char*>(bytes),
             static_cast<std::streamsize>(n_bytes));
  if (!out_) {
    record_first_error(last_error_, "TraceWriter: chunk write failed");
    throw std::runtime_error("TraceWriter: chunk write failed");
  }
  total_ += samples.size();
}

bool TraceWriter::flush() noexcept {
  if (closed_) return last_error_.empty();
  out_.flush();
  if (!out_) record_first_error(last_error_, "TraceWriter: flush failed");
  return last_error_.empty();
}

saiyan::Result<Unit> TraceWriter::finish() {
  if (close_()) return Unit{};
  return fail(last_error_);
}

bool TraceWriter::close_() noexcept {
  // Idempotent: only the first call touches the stream; every later
  // call (a second finish(), the destructor after finish()) reports
  // the first call's outcome.
  if (closed_) return last_error_.empty();
  closed_ = true;
  out_.seekp(total_samples_pos_);
  put(out_, total_);
  out_.flush();
  const bool flushed = static_cast<bool>(out_);
  out_.close();
  // Record instead of throwing: the destructor lands here, and a
  // failed flush means the file is truncated/unpatched on disk. After
  // a failed chunk write this fails too; the chunk error stays first.
  if (!flushed || !out_) {
    record_first_error(last_error_,
                       "TraceWriter: close failed (trace truncated)");
  }
  return last_error_.empty();
}

TraceReader::TraceReader(const std::string& path, bool recover)
    : TraceReader(
          [&path]() -> std::unique_ptr<std::istream> {
            auto f = std::make_unique<std::ifstream>(path, std::ios::binary);
            if (!*f) {
              throw std::runtime_error("TraceReader: cannot open " + path);
            }
            return f;
          }(),
          0, recover, path) {}

TraceReader TraceReader::from_bytes(std::string_view bytes, bool recover) {
  return TraceReader(
      std::make_unique<std::istringstream>(std::string(bytes),
                                           std::ios::binary),
      bytes.size(), recover, "<memory>");
}

saiyan::Result<TraceReader> TraceReader::open(const std::string& path,
                                              bool recover) {
  auto f = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*f) {
    return fail("TraceReader: cannot open " + path, IngestError::kBadHeader);
  }
  TraceReader reader(Unparsed{}, std::move(f), 0, recover);
  if (auto err = reader.parse_header(path)) return *std::move(err);
  return reader;
}

saiyan::Result<TraceReader> TraceReader::try_from_bytes(std::string_view bytes,
                                                        bool recover) {
  TraceReader reader(Unparsed{},
                     std::make_unique<std::istringstream>(std::string(bytes),
                                                          std::ios::binary),
                     bytes.size(), recover);
  if (auto err = reader.parse_header("<memory>")) return *std::move(err);
  return reader;
}

TraceReader::TraceReader(Unparsed, std::unique_ptr<std::istream> in,
                         std::uint64_t size, bool recover)
    : in_(std::move(in)), size_(size), recover_(recover) {}

TraceReader::TraceReader(std::unique_ptr<std::istream> in, std::uint64_t size,
                         bool recover, const std::string& name)
    : TraceReader(Unparsed{}, std::move(in), size, recover) {
  if (auto err = parse_header(name)) throw std::runtime_error(err->message);
}

std::optional<saiyan::Error> TraceReader::parse_header(
    const std::string& name) {
  if (size_ == 0) {
    // File path: measure once so every length field can be bounded by
    // what the file can physically hold.
    in_->seekg(0, std::ios::end);
    const std::streamoff end = in_->tellg();
    in_->seekg(0, std::ios::beg);
    if (end < 0 || !*in_) {
      return saiyan::Error{"TraceReader: cannot stat " + name,
                           IngestError::kBadHeader};
    }
    size_ = static_cast<std::uint64_t>(end);
  }
  char magic[8];
  if (!read_exact(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return saiyan::Error{"TraceReader: bad magic in " + name,
                         IngestError::kBadMagic};
  }
  std::uint32_t version = 0;
  std::uint32_t mode = 0;
  std::uint32_t sf = 0, k = 0, preamble = 0, fec = 0, payload = 0;
  std::uint64_t n_markers = 0;
  if (!get(version) || (version != kVersionF64 && version != kVersionF32)) {
    return saiyan::Error{"TraceReader: unsupported trace version",
                         IngestError::kBadVersion};
  }
  meta_.float32_samples = version == kVersionF32;
  bool ok = get(mode) && get(meta_.phy.sample_rate_hz) && get(sf) &&
            get(meta_.phy.bandwidth_hz) && get(k) && get(preamble) &&
            get(meta_.phy.sync_symbols) && get(fec) && get(payload) &&
            get(meta_.total_samples) && get(n_markers);
  // Each marker record occupies at least kMarkerMinBytes, so a marker
  // count the remaining bytes cannot hold is malformed regardless of
  // the format cap — reject before sizing the marker table from it.
  if (!ok || mode > static_cast<std::uint32_t>(core::Mode::kSuper) ||
      fec > static_cast<std::uint32_t>(lora::FecRate::k4_8) ||
      payload == 0 || payload > kMaxMarkerSymbols || n_markers > kMaxMarkers ||
      n_markers * kMarkerMinBytes > size_ - pos_) {
    return saiyan::Error{"TraceReader: malformed header",
                         IngestError::kBadHeader};
  }
  meta_.mode = static_cast<core::Mode>(mode);
  meta_.phy.spreading_factor = static_cast<int>(sf);
  meta_.phy.bits_per_symbol = static_cast<int>(k);
  meta_.phy.preamble_symbols = static_cast<int>(preamble);
  meta_.phy.fec = static_cast<lora::FecRate>(fec);
  meta_.payload_symbols = payload;
  try {
    meta_.phy.validate();
  } catch (const std::invalid_argument& err) {
    // Keep the documented contract: header problems, including corrupt
    // PHY fields, surface as header errors.
    return saiyan::Error{
        std::string("TraceReader: bad PHY header: ") + err.what(),
        IngestError::kBadHeader};
  }
  markers_.resize(n_markers);
  for (TraceMarker& m : markers_) {
    std::uint32_t n_syms = 0;
    if (!get(m.sample_offset) || !get(m.tag_id) || !get(n_syms) ||
        n_syms > kMaxMarkerSymbols ||
        n_syms * sizeof(std::uint32_t) > size_ - pos_) {
      return saiyan::Error{"TraceReader: malformed marker table",
                           IngestError::kBadMarkerTable};
    }
    m.symbols.resize(n_syms);
    if (!read_exact(m.symbols.data(), n_syms * sizeof(std::uint32_t))) {
      return saiyan::Error{"TraceReader: malformed marker table",
                           IngestError::kBadMarkerTable};
    }
  }
  return std::nullopt;
}

bool TraceReader::read_exact(void* dst, std::size_t n) {
  in_->read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
  const std::size_t got = static_cast<std::size_t>(in_->gcount());
  pos_ += got;
  return got == n;
}

std::size_t TraceReader::sample_bytes() const {
  return meta_.float32_samples ? 2 * sizeof(float) : sizeof(dsp::Complex);
}

void TraceReader::decode_samples(dsp::Signal& out,
                                 std::uint32_t n_samples) const {
  out.resize(n_samples);
  if (meta_.float32_samples) {
    const float* f = reinterpret_cast<const float*>(chunk_bytes_.data());
    for (std::size_t i = 0; i < n_samples; ++i) {
      out[i] = dsp::Complex(static_cast<double>(f[2 * i]),
                            static_cast<double>(f[2 * i + 1]));
    }
  } else {
    std::memcpy(out.data(), chunk_bytes_.data(),
                n_samples * sizeof(dsp::Complex));
  }
}

ChunkStatus TraceReader::end_of_stream() {
  // A file chopped at an exact chunk boundary still parses chunk by
  // chunk; the header sample count is what catches it. A total of 0
  // means the writer never patched the header (crashed before
  // close()) — nothing to cross-check then.
  if (!eof_done_ && meta_.total_samples != 0 &&
      samples_read_ != meta_.total_samples) {
    eof_done_ = true;
    stats_.count(IngestError::kTotalMismatch);
    if (!recover_) {
      failed_ = true;
      return ChunkStatus::kCorrupt;
    }
  }
  eof_done_ = true;
  return ChunkStatus::kEof;
}

ChunkStatus TraceReader::fail_chunk(IngestError err, std::uint64_t chunk_start,
                                    std::uint32_t declared_n,
                                    dsp::Signal& out) {
  stats_.count(err);
  ++stats_.chunks_corrupt;
  if (!recover_) {
    failed_ = true;
    return ChunkStatus::kCorrupt;
  }
  return resync(chunk_start, declared_n, out);
}

ChunkStatus TraceReader::next_chunk(dsp::Signal& out) {
  out.clear();
  if (failed_) return ChunkStatus::kCorrupt;
  const std::uint64_t chunk_start = pos_;
  std::uint32_t n_samples = 0;
  if (!get(n_samples)) {
    if (in_->eof() && pos_ == chunk_start) return end_of_stream();
    return fail_chunk(IngestError::kChunkTruncated, chunk_start, 0, out);
  }
  std::uint16_t crc = 0, reserved = 0;
  if (n_samples == 0 || n_samples > kMaxChunkSamples) {
    return fail_chunk(IngestError::kChunkHeader, chunk_start, 0, out);
  }
  if (!get(crc) || !get(reserved)) {
    return fail_chunk(IngestError::kChunkTruncated, chunk_start, 0, out);
  }
  if (reserved != 0) {
    return fail_chunk(IngestError::kChunkHeader, chunk_start, 0, out);
  }
  const std::uint64_t n_bytes =
      static_cast<std::uint64_t>(n_samples) * sample_bytes();
  // Bound by the bytes the file can still hold *before* allocating:
  // a hostile length field must reject cleanly, not reserve 64 MiB
  // for a 100-byte file.
  if (n_bytes > size_ - pos_) {
    return fail_chunk(IngestError::kChunkTruncated, chunk_start, n_samples,
                      out);
  }
  chunk_bytes_.resize(n_bytes);
  if (!read_exact(chunk_bytes_.data(), n_bytes)) {
    return fail_chunk(IngestError::kChunkTruncated, chunk_start, n_samples,
                      out);
  }
  if (lora::crc16(chunk_bytes_) != crc) {
    return fail_chunk(IngestError::kChunkCrc, chunk_start, n_samples, out);
  }
  decode_samples(out, n_samples);
  samples_read_ += n_samples;
  ++stats_.chunks_ok;
  return ChunkStatus::kOk;
}

ChunkStatus TraceReader::resync(std::uint64_t chunk_start,
                                std::uint32_t declared_n, dsp::Signal& out) {
  // Slide forward byte by byte looking for the next complete chunk
  // record: plausible header (length in bounds, reserved zero, payload
  // fits in the file) whose payload passes its CRC16. The header
  // screen is cheap over a windowed buffer; the CRC seals the match —
  // a random 8-byte window that also CRC-checks is a ~2^-16 accident
  // on top of the screen, and a wrong lock merely costs one more
  // resync at the next chunk.
  const std::size_t sb = sample_bytes();
  in_->clear();
  std::uint64_t window_start = chunk_start + 1;
  while (window_start + kChunkHeaderBytes <= size_) {
    const std::size_t win_len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kResyncWindow, size_ - window_start));
    resync_buf_.resize(win_len);
    in_->clear();
    in_->seekg(static_cast<std::streamoff>(window_start));
    in_->read(reinterpret_cast<char*>(resync_buf_.data()),
              static_cast<std::streamsize>(win_len));
    if (static_cast<std::size_t>(in_->gcount()) != win_len) break;
    for (std::size_t o = 0; o + kChunkHeaderBytes <= win_len; ++o) {
      std::uint32_t n = 0;
      std::uint16_t crc = 0, reserved = 0;
      std::memcpy(&n, resync_buf_.data() + o, sizeof(n));
      std::memcpy(&crc, resync_buf_.data() + o + 4, sizeof(crc));
      std::memcpy(&reserved, resync_buf_.data() + o + 6, sizeof(reserved));
      if (n == 0 || n > kMaxChunkSamples || reserved != 0) continue;
      const std::uint64_t cand = window_start + o;
      const std::uint64_t n_bytes = static_cast<std::uint64_t>(n) * sb;
      if (cand + kChunkHeaderBytes + n_bytes > size_) continue;
      chunk_bytes_.resize(n_bytes);
      in_->clear();
      in_->seekg(static_cast<std::streamoff>(cand + kChunkHeaderBytes));
      in_->read(reinterpret_cast<char*>(chunk_bytes_.data()),
                static_cast<std::streamsize>(n_bytes));
      if (static_cast<std::size_t>(in_->gcount()) != n_bytes) continue;
      if (lora::crc16(chunk_bytes_) != crc) continue;
      // Locked. Estimate the samples lost in the skipped bytes: when
      // the abandoned chunk's declared length was plausible and the
      // skip covers exactly that one record (payload corruption, the
      // common case), the declared count is exact; otherwise assume
      // the skipped bytes were all payload.
      const std::uint64_t skipped = cand - chunk_start;
      std::uint64_t lost;
      if (declared_n != 0 &&
          skipped == kChunkHeaderBytes +
                         static_cast<std::uint64_t>(declared_n) * sb) {
        lost = declared_n;
      } else {
        lost = skipped / sb;
      }
      stats_.bytes_skipped += skipped;
      stats_.samples_lost += lost;
      ++stats_.resyncs;
      last_gap_samples_ = lost;
      decode_samples(out, n);
      samples_read_ += n;
      ++stats_.chunks_ok;
      pos_ = cand + kChunkHeaderBytes + n_bytes;
      in_->clear();
      in_->seekg(static_cast<std::streamoff>(pos_));
      return ChunkStatus::kResync;
    }
    // Overlap the window edge so a header straddling it is re-screened.
    window_start += win_len - (kChunkHeaderBytes - 1);
  }
  // No valid chunk anywhere ahead: the corrupt region runs to EOF.
  const std::uint64_t skipped = size_ - chunk_start;
  stats_.bytes_skipped += skipped;
  last_gap_samples_ = skipped / sb;
  stats_.samples_lost += last_gap_samples_;
  pos_ = size_;
  in_->clear();
  in_->seekg(0, std::ios::end);
  return end_of_stream();
}

}  // namespace saiyan::stream
