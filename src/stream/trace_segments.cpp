#include "stream/trace_segments.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace saiyan::stream {

namespace {

namespace fs = std::filesystem;

/// fsync a path through a short-lived descriptor. The trace bytes were
/// written through an ofstream (no fd access); fsync flushes the
/// inode's dirty pages regardless of which descriptor requests it.
bool fsync_path(const char* path, bool directory) noexcept {
  const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path, flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// "seg-000042.sytrc[.tmp]" -> (index, sealed). Anything else in the
/// directory is ignored by the scan.
bool parse_segment_name(const std::string& name, std::uint64_t& index,
                        bool& sealed) {
  if (name.rfind("seg-", 0) != 0) return false;
  std::size_t i = 4;
  std::uint64_t v = 0;
  std::size_t digits = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
    ++i;
    ++digits;
  }
  if (digits == 0 || digits > 12) return false;
  const std::string_view rest(name.data() + i, name.size() - i);
  if (rest == ".sytrc") {
    sealed = true;
  } else if (rest == ".sytrc.tmp") {
    sealed = false;
  } else {
    return false;
  }
  index = v;
  return true;
}

void line(std::string& out, const char* key, std::uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %llu\n", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

const char* to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kOnSeal: return "on-seal";
    case FsyncPolicy::kEveryChunk: return "every-chunk";
  }
  return "invalid";
}

std::string SegmentedTraceWriter::segment_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu.sytrc",
                static_cast<unsigned long long>(index));
  return buf;
}

SegmentedTraceWriter::SegmentedTraceWriter(
    const std::string& dir, const TraceMeta& meta,
    const std::vector<TraceMarker>& markers, const SegmentPolicy& policy)
    : dir_(dir), meta_(meta), markers_(markers), policy_(policy) {
  meta_.total_samples = 0;  // per-segment totals are patched at seal
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("SegmentedTraceWriter: cannot create " + dir_ +
                             ": " + ec.message());
  }
  open_segment();
}

SegmentedTraceWriter::~SegmentedTraceWriter() { close_(); }

void SegmentedTraceWriter::open_segment() {
  const std::string tmp = dir_ + "/" + segment_name(seg_index_) + ".tmp";
  // Markers carry capture-absolute offsets; they live in segment 0
  // only so recovery reads one authoritative table.
  writer_.emplace(tmp, meta_,
                  seg_index_ == 0 ? markers_ : std::vector<TraceMarker>{});
  seg_samples_ = 0;
}

void SegmentedTraceWriter::write_chunk(std::span<const dsp::Complex> samples) {
  if (closed_) {
    throw std::logic_error("SegmentedTraceWriter: write after close");
  }
  if (samples.empty()) return;
  bool rotate = false;
  if (seg_samples_ != 0) {
    if (policy_.segment_samples != 0 &&
        seg_samples_ >= policy_.segment_samples) {
      rotate = true;
    }
    if (policy_.segment_seconds > 0.0 &&
        static_cast<double>(seg_samples_) >=
            policy_.segment_seconds * meta_.phy.sample_rate_hz) {
      rotate = true;
    }
  }
  if (rotate) {
    if (!seal_segment()) throw std::runtime_error(last_error_);
    ++seg_index_;
    open_segment();
  }
  try {
    writer_->write_chunk(samples);
  } catch (const std::runtime_error& e) {
    // I/O failure; bad arguments throw logic errors instead.
    record_first_error(last_error_, e.what());
    throw;
  }
  seg_samples_ += samples.size();
  total_ += samples.size();
  if (policy_.fsync == FsyncPolicy::kEveryChunk) {
    const std::string tmp = dir_ + "/" + segment_name(seg_index_) + ".tmp";
    if (!writer_->flush() || !fsync_path(tmp.c_str(), /*directory=*/false)) {
      record_first_error(last_error_,
                         "SegmentedTraceWriter: per-chunk fsync failed");
      throw std::runtime_error(last_error_);
    }
  }
}

bool SegmentedTraceWriter::seal_segment() noexcept {
  if (!writer_) return last_error_.empty();
  const std::string tmp = dir_ + "/" + segment_name(seg_index_) + ".tmp";
  const std::string fin = dir_ + "/" + segment_name(seg_index_);
  bool closed_ok = false;
  try {
    const saiyan::Result<Unit> closed = writer_->finish();
    closed_ok = closed.ok();
    if (!closed_ok) record_first_error(last_error_, closed.message());
  } catch (...) {  // allocating the Error
    record_first_error(last_error_,
                       "SegmentedTraceWriter: segment close failed");
  }
  writer_.reset();
  if (!closed_ok) return false;
  if (policy_.fsync != FsyncPolicy::kNone &&
      !fsync_path(tmp.c_str(), /*directory=*/false)) {
    record_first_error(last_error_,
                       "SegmentedTraceWriter: fsync before seal failed");
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, fin, ec);  // atomic within the directory
  if (ec) {
    record_first_error(last_error_, "SegmentedTraceWriter: seal rename failed");
    return false;
  }
  if (policy_.fsync != FsyncPolicy::kNone &&
      !fsync_path(dir_.c_str(), /*directory=*/true)) {
    record_first_error(
        last_error_, "SegmentedTraceWriter: directory fsync after seal failed");
    return false;
  }
  ++sealed_;
  return true;
}

saiyan::Result<Unit> SegmentedTraceWriter::finish() {
  if (close_()) return Unit{};
  return fail(last_error_);
}

bool SegmentedTraceWriter::close_() noexcept {
  if (closed_) return last_error_.empty();
  closed_ = true;
  return seal_segment();
}

std::string RecoveryReport::to_text() const {
  std::string out;
  out.reserve(256 + 160 * segments.size());
  line(out, "segments", segments.size());
  line(out, "sealed_segments", sealed_segments);
  line(out, "torn_tail", torn_tail ? 1 : 0);
  line(out, "salvaged_samples", salvaged_samples);
  line(out, "markers", markers.size());
  for (const SegmentInfo& s : segments) {
    char key[64];
    std::snprintf(key, sizeof(key), "segment.%llu.sealed",
                  static_cast<unsigned long long>(s.index));
    line(out, key, s.sealed ? 1 : 0);
    std::snprintf(key, sizeof(key), "segment.%llu.complete",
                  static_cast<unsigned long long>(s.index));
    line(out, key, s.complete ? 1 : 0);
    std::snprintf(key, sizeof(key), "segment.%llu.samples",
                  static_cast<unsigned long long>(s.index));
    line(out, key, s.samples);
    std::snprintf(key, sizeof(key), "segment.%llu.chunks",
                  static_cast<unsigned long long>(s.index));
    line(out, key, s.chunks);
    std::snprintf(key, sizeof(key), "segment.%llu.chunks_corrupt",
                  static_cast<unsigned long long>(s.index));
    line(out, key, s.stats.chunks_corrupt);
  }
  return out;
}

saiyan::Result<RecoveryReport> scan_segments(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return fail("scan_segments: cannot read " + dir + ": " + ec.message());
  }
  RecoveryReport rep;
  for (const fs::directory_entry& entry : it) {
    std::error_code fec;
    if (!entry.is_regular_file(fec)) continue;
    SegmentInfo si;
    if (!parse_segment_name(entry.path().filename().string(), si.index,
                            si.sealed)) {
      continue;
    }
    si.path = entry.path().string();
    rep.segments.push_back(std::move(si));
  }
  if (rep.segments.empty()) {
    return fail("scan_segments: no segment files in " + dir);
  }
  // Index order; a sealed segment sorts before a same-index tmp (a
  // same-index pair cannot be produced by the writer, but a scan must
  // not depend on that).
  std::sort(rep.segments.begin(), rep.segments.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              if (a.index != b.index) return a.index < b.index;
              return a.sealed && !b.sealed;
            });
  bool have_meta = false;
  for (SegmentInfo& si : rep.segments) {
    if (!si.sealed) rep.torn_tail = true;
    // Recover mode even for sealed segments: a disk-damaged sealed
    // segment still salvages its intact chunks (and complete=false
    // makes the damage visible).
    auto opened = TraceReader::open(si.path, /*recover=*/true);
    if (!opened.ok()) {
      si.readable = false;
      si.error = opened.message();
      continue;
    }
    si.readable = true;
    TraceReader reader = std::move(opened).value();
    dsp::Signal chunk;
    for (;;) {
      const ChunkStatus st = reader.next_chunk(chunk);
      if (st != ChunkStatus::kOk && st != ChunkStatus::kResync) break;
      si.samples += chunk.size();
      ++si.chunks;
    }
    si.stats = reader.stats();
    si.complete = si.sealed && si.stats.chunks_corrupt == 0 &&
                  si.stats.total_errors() == 0;
    if (si.sealed) ++rep.sealed_segments;
    rep.salvaged_samples += si.samples;
    if (!have_meta) {
      rep.meta = reader.meta();
      rep.markers = reader.markers();
      have_meta = true;
    }
  }
  rep.meta.total_samples = rep.salvaged_samples;
  return rep;
}

SegmentedTraceReader::SegmentedTraceReader(RecoveryReport report)
    : report_(std::move(report)) {}

saiyan::Result<SegmentedTraceReader> SegmentedTraceReader::open(
    const std::string& dir) {
  auto scanned = scan_segments(dir);
  if (!scanned.ok()) return scanned.error();
  return SegmentedTraceReader(std::move(scanned).value());
}

ChunkStatus SegmentedTraceReader::next_chunk(dsp::Signal& out) {
  out.clear();
  for (;;) {
    if (!reader_) {
      while (cur_ < report_.segments.size() &&
             !report_.segments[cur_].readable) {
        ++cur_;
      }
      if (cur_ >= report_.segments.size()) return ChunkStatus::kEof;
      auto opened =
          TraceReader::open(report_.segments[cur_].path, /*recover=*/true);
      if (!opened.ok()) {  // vanished or damaged since the scan
        ++cur_;
        continue;
      }
      reader_.emplace(std::move(opened).value());
    }
    const ChunkStatus st = reader_->next_chunk(out);
    if (st == ChunkStatus::kOk || st == ChunkStatus::kResync) {
      if (st == ChunkStatus::kResync) {
        last_gap_ = reader_->last_gap_samples();
      }
      samples_read_ += out.size();
      return st;
    }
    // Recover-mode readers only end with kEof; fold this segment's
    // health counters in and move on.
    stats_.merge(reader_->stats());
    reader_.reset();
    ++cur_;
  }
}

saiyan::Result<RecoveryReport> merge_segments(const std::string& dir,
                                              const std::string& out_path) {
  auto opened = SegmentedTraceReader::open(dir);
  if (!opened.ok()) return opened.error();
  SegmentedTraceReader reader = std::move(opened).value();
  try {
    TraceMeta meta = reader.meta();
    meta.total_samples = 0;  // patched by the writer at close
    TraceWriter writer(out_path, meta, reader.markers());
    dsp::Signal chunk;
    for (;;) {
      const ChunkStatus st = reader.next_chunk(chunk);
      if (st != ChunkStatus::kOk && st != ChunkStatus::kResync) break;
      writer.write_chunk(chunk);
    }
    if (auto fin = writer.finish(); !fin.ok()) return fin.error();
  } catch (const std::exception& err) {
    return fail(std::string("merge_segments: ") + err.what());
  }
  return reader.report();
}

}  // namespace saiyan::stream
