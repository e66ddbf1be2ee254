#include "stream/streaming_demod.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "dsp/utils.hpp"
#include "obs/trace_ring.hpp"

namespace {

/// Stage timer target, or null when the owner wired no metrics (the
/// ScopedTimer then costs two loads and times nothing).
saiyan::obs::LatencyHistogram* stage_hist(
    const saiyan::stream::StreamConfig& cfg, saiyan::obs::Stage s) {
  return cfg.stage_metrics != nullptr ? &cfg.stage_metrics->histogram(s)
                                      : nullptr;
}

}  // namespace

namespace saiyan::stream {

namespace {

bool near(std::uint64_t a, std::uint64_t b, std::uint64_t tol) {
  return a + tol >= b && b + tol >= a;
}

/// Scan blocks are eight symbols. Blocks tile the absolute stream, so
/// this also bounds detection latency.
std::size_t scan_block_samples(const core::SaiyanConfig& cfg) {
  return 8 * cfg.phy.samples_per_symbol();
}

}  // namespace

StreamingDemodulator::StreamingDemodulator(const StreamConfig& cfg)
    : cfg_(cfg),
      batch_(cfg.saiyan),
      scan_chain_(core::scan_config(cfg.saiyan)),
      scan_detector_(scan_chain_),
      scanner_(scan_detector_, cfg.min_score, scan_block_samples(cfg.saiyan)) {
  if (cfg_.payload_symbols == 0) {
    throw std::invalid_argument("StreamingDemodulator: payload_symbols == 0");
  }
  const std::size_t spsym = cfg_.saiyan.phy.samples_per_symbol();
  preamble_len_ = scanner_.template_size();
  frame_len_ = preamble_len_ + cfg_.payload_symbols * spsym;
  block_ = scan_block_samples(cfg_.saiyan);
  // Retention bound: a frame decodes at the first block boundary after
  // its last sample, so the ring must reach back frame + one block
  // from the write head; the extra preamble length is slack for
  // detection-confirmation latency. A SIC cancellation chain extends
  // the reach: a re-queued rescan of frame A's span only runs after
  // the frame it revealed (up to one frame later) is cancelled in
  // turn, so each depth level adds up to a frame of retention.
  // Cancellation writes into this one ring, so scan, decode and rescan
  // all read it.
  std::size_t reach = frame_len_ + preamble_len_ + 2 * block_;
  if (cfg_.sic.depth > 0) {
    sic_.emplace(cfg_.saiyan, cfg_.sic, cfg_.payload_symbols);
    reach +=
        std::min<std::size_t>(cfg_.sic.depth, 6) * frame_len_ + 2 * block_;
    rescans_.reserve(32);
  }
  rf_.reserve(reach);
  confirmed_.reserve(4);
  pending_.reserve(64);
}

std::size_t StreamingDemodulator::push(std::span<const dsp::Complex> chunk) {
  const std::size_t before = packets_.size();
  std::size_t i = 0;
  while (i < chunk.size()) {
    // Cooperative cancellation: one relaxed load per block iteration
    // keeps the hot path unmeasurable while bounding the reaction
    // time of a watchdog cancel to a single block of work.
    if (cfg_.cancel != nullptr &&
        cfg_.cancel->load(std::memory_order_relaxed)) {
      cancelled_ = true;
      break;
    }
    const std::size_t filled =
        static_cast<std::size_t>(received_ - next_block_start_);
    const std::size_t take = std::min(chunk.size() - i, block_ - filled);
    ingest(chunk.subspan(i, take));
    received_ += take;
    i += take;
    if (received_ - next_block_start_ == block_) {
      process_block(next_block_start_, block_);
      next_block_start_ += block_;
    }
  }
  return packets_.size() - before;
}

std::size_t StreamingDemodulator::finish() {
  const std::size_t before = packets_.size();
  const std::size_t tail =
      static_cast<std::size_t>(received_ - next_block_start_);
  if (tail != 0) {
    // The partial tail block depends only on the total capture length,
    // never on the chunk partition, so scanning it preserves
    // chunk-size invariance.
    process_block(next_block_start_, tail);
    next_block_start_ += tail;
  }
  scanner_.finish(confirmed_);
  for (const PacketSpan& span : confirmed_) admit_span(span);
  confirmed_.clear();
  decode_ready(/*flush=*/true);
  return packets_.size() - before;
}

void StreamingDemodulator::note_gap(std::uint64_t lost_samples) {
  if (lost_samples == 0) return;
  // Whole-stage span: salvage decodes, span drops and the zero-fill
  // pushes all nest inside it (the nested scan/decode stages also time
  // themselves — the timeline shows the nesting, the histograms
  // overlap by design).
  obs::ScopedTimer timer("gap_realign",
                         stage_hist(cfg_, obs::Stage::kGapRealign));
  ++ingest_.gaps;
  ingest_.gap_samples += lost_samples;
  // Frames whose last sample already arrived decode normally first —
  // only the block-boundary latency separates them from "done". This
  // is the one place a cancel can write into [next_block_start_,
  // received_), which the scanner has not read yet. That is safe: the
  // desync below suppresses every lag before the resume point, so no
  // score from those samples reaches a span.
  decode_ready(/*flush=*/false);
  // Whatever is still pending straddles the gap: its frame end lies
  // beyond the samples we actually have, and the missing span will be
  // zeros. Abandon those spans (a SIC rescan must not re-frame them).
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
    ++ingest_.spans_dropped;
    remember_start(pending_[i].packet_start);
  }
  pending_.clear();
  pending_head_ = 0;
  // The scanner's unconfirmed candidate scored across the gap
  // boundary; suppress everything before intact samples resume.
  scanner_.desync(received_ + lost_samples);
  // Zero-fill the gap through the normal push path so the absolute
  // sample timeline stays aligned with upstream ground truth and the
  // block tiling never skews. Zeros are inert to the scanner (the
  // relative variance floor keeps their score at zero).
  if (gap_fill_.size() != block_) gap_fill_.assign(block_, dsp::Complex{});
  std::uint64_t left = lost_samples;
  while (left != 0) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, block_));
    push(std::span<const dsp::Complex>(gap_fill_).first(take));
    left -= take;
  }
}

void StreamingDemodulator::ingest(std::span<const dsp::Complex> samples) {
  if (cfg_.stage_metrics == nullptr) {
    rf_.append(samples);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  rf_.append(samples);
  ingest_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

void StreamingDemodulator::reset() {
  rf_.clear();
  ingest_ns_ = 0;
  scanner_.reset();
  pending_.clear();
  pending_head_ = 0;
  rescans_.clear();
  rescan_head_ = 0;
  recent_count_ = 0;
  cancelled_ = false;
  degradation_ = 0;
  last_frame_end_ = 0;
  received_ = 0;
  next_block_start_ = 0;
  packet_counter_ = 0;
  truncated_ = 0;
  collision_groups_ = 0;
  collisions_resolved_ = 0;
  frames_cancelled_ = 0;
  ingest_ = IngestStats{};
}

void StreamingDemodulator::process_block(std::uint64_t block_start,
                                         std::size_t len) {
  const std::span<const dsp::Complex> rf_block = rf_.view(block_start, len);
  {
    // The scan stage: the block's ring ingest (timed per append, the
    // sub-microsecond remainder carried to the next block), envelope +
    // incremental preamble scan, span admission and the idle block's
    // noise-floor sample. Decode work triggered below times itself.
    const std::uint64_t ingest_us = ingest_ns_ / 1000;
    ingest_ns_ %= 1000;
    obs::ScopedTimer t("scan", stage_hist(cfg_, obs::Stage::kScan),
                       ingest_us);
    scan_chain_.reference_envelope_into(rf_block, scan_ws_);
    scanner_.push_block(scan_ws_.env, confirmed_);
    for (const PacketSpan& span : confirmed_) admit_span(span);
    confirmed_.clear();
    if (cfg_.link_telemetry != nullptr) {
      // Noise-floor sampling from inter-frame idle spans: a block is
      // idle when no confirmed span is in flight, the scanner holds no
      // rising candidate, and every decoded frame ended before it. An
      // undetected preamble onset can slip through; the tracker's power
      // gate rejects it. Purely observational — decode never sees this.
      const bool idle = pending_head_ == pending_.size() &&
                        !scanner_.has_candidate() &&
                        block_start >= last_frame_end_;
      if (idle) {
        cfg_.link_telemetry->sample_noise(dsp::signal_power(rf_block));
      }
    }
  }
  decode_ready(/*flush=*/false);
}

void StreamingDemodulator::decode_ready(bool flush) {
  bool progress = true;
  while (progress) {
    progress = false;
    while (pending_head_ < pending_.size()) {
      const PacketSpan span = pending_[pending_head_];
      if (span.packet_start + frame_len_ <= received_) {
        if (degradation_ >= 3) {
          // Last degradation rung: the span is complete but decode is
          // the work being shed — drop it whole, visibly.
          ++ingest_.spans_shed;
        } else {
          decode_span(span);
        }
        progress = true;
      } else if (flush) {
        ++truncated_;  // capture ended mid-frame
      } else {
        break;
      }
      // Decoded, shed or truncated, it is a known frame: a rescan of
      // the span that revealed it must not frame it a second time.
      remember_start(span.packet_start);
      ++pending_head_;
    }
    if (pending_head_ == pending_.size()) {
      pending_.clear();
      pending_head_ = 0;
    }
    // Rescans run here, inline, at every block boundary. A region is
    // queued once its frame has decoded and is ready one preamble
    // (cancel) or one frame (re-queue) later, so the queue only holds
    // regions queued in the last frame plus one block: load slows the
    // producer and this consumer together and cannot grow it.
    while (rescan_head_ < rescans_.size()) {
      const RescanRegion region = rescans_[rescan_head_];
      if (degradation_ >= 2) {
        // Ladder rung 2: the queued rescans are the work being shed.
        ++rescan_head_;
        ++ingest_.rescans_dropped;
        continue;
      }
      if (region.ready_at > received_ && !flush) break;
      ++rescan_head_;
      if (process_rescan(region)) progress = true;
    }
    if (rescan_head_ == rescans_.size()) {
      rescans_.clear();
      rescan_head_ = 0;
    }
  }
}

void StreamingDemodulator::decode_span(const PacketSpan& span) {
  // The per-packet stream derives from (seed, decode index) exactly
  // like a sweep batch, so decoding the same framed span through a
  // stand-alone BatchDemodulator reproduces this packet bit for bit.
  // The ring equals the raw capture everywhere no cancelled frame
  // overlapped.
  const std::uint64_t seed_index =
      cfg_.seed_by_offset ? span.packet_start : packet_counter_;
  DecodedPacket p;
  p.packet_start = span.packet_start;
  p.payload_start = span.payload_start;
  p.score = span.score;
  p.first_symbol = static_cast<std::uint32_t>(symbols_.size());
  p.collided = span.sic_depth > 0;
  p.sic_assisted = span.sic_depth > 0;
  p.sic_depth = span.sic_depth;
  std::span<const std::uint32_t> syms;
  {
    // The decode stage: the frame's view of the ring (a stitch when it
    // wraps), its link diagnostics and the symbol decode.
    obs::ScopedTimer t("decode", stage_hist(cfg_, obs::Stage::kDecode));
    const std::span<const dsp::Complex> frame =
        rf_.view(span.packet_start, frame_len_);
    if (cfg_.link_telemetry != nullptr) {
      // Before the decode, which reads nothing it writes: the frame the
      // ring just served is still in cache.
      fill_diag(span, frame, p);
      last_frame_end_ =
          std::max(last_frame_end_, span.packet_start + frame_len_);
    }
    syms = batch_.decode_aligned(frame, preamble_len_, cfg_.payload_symbols,
                                 dsp::derive_stream_seed(cfg_.seed,
                                                         seed_index));
  }
  p.n_symbols = static_cast<std::uint32_t>(syms.size());
  symbols_.insert(symbols_.end(), syms.begin(), syms.end());
  packets_.push_back(p);
  ++packet_counter_;
  if (span.sic_depth > 0) ++collisions_resolved_;
  if (span.sic_depth < effective_sic_depth()) {
    cancel_frame(span);
  } else if (span.sic_depth < cfg_.sic.depth) {
    // The degradation ladder capped the chain below its configured
    // depth: a shed cancellation. The frame itself is already decoded
    // and delivered.
    ++ingest_.sic_shed;
  }
}

void StreamingDemodulator::fill_diag(const PacketSpan& span,
                                     std::span<const dsp::Complex> frame,
                                     DecodedPacket& p) const {
  obs::LinkTelemetry& lt = *cfg_.link_telemetry;

  // SNR: mean frame power against the tracked noise floor, with the
  // noise contribution inside the frame subtracted back out. Clamped
  // to [-100, +100] dB; 0 until the floor tracker has primed.
  const double noise_w = lt.noise_floor_watts();
  if (noise_w > 0.0) {
    const double frame_w = dsp::signal_power(frame);
    const double sig_w = std::max(frame_w - noise_w, noise_w * 1e-10);
    p.snr_db = std::clamp(10.0 * std::log10(sig_w / noise_w), -100.0, 100.0);
    p.noise_floor_dbm = lt.noise_floor_dbm();
  }

  // CFO: one-symbol-lag autocorrelation over the repeated upchirps of
  // the preamble. Each term r[n+spsym]·conj(r[n]) cancels the chirp
  // and leaves e^{j2πf·Tsym}; the accumulated phase over one symbol
  // time is the carrier offset. O(preamble) — noise-level cost next
  // to the decode FFTs.
  const std::size_t spsym = cfg_.saiyan.phy.samples_per_symbol();
  const std::size_t up_len = std::min<std::size_t>(
      preamble_len_,
      static_cast<std::size_t>(cfg_.saiyan.phy.preamble_symbols) * spsym);
  if (up_len > spsym) {
    dsp::Complex acc{};
    for (std::size_t n = 0; n + spsym < up_len; ++n) {
      acc += frame[n + spsym] * std::conj(frame[n]);
    }
    const double t_sym =
        static_cast<double>(spsym) / cfg_.saiyan.phy.sample_rate_hz;
    if (std::abs(acc) > 0.0) p.cfo_hz = std::arg(acc) / (dsp::kTwoPi * t_sym);
  }

  // Timing: parabolic interpolation through the scanner peak and its
  // one-lag neighbors gives a fractional-sample offset. Rescan hits
  // and stream-head peaks have no neighbors recorded — offset 0.
  const double sp = span.score_prev;
  const double sn = span.score_next;
  const double denom = sp - 2.0 * span.score + sn;
  if (sp > 0.0 && sn > 0.0 && denom < 0.0) {
    p.timing_offset = std::clamp(0.5 * (sp - sn) / denom, -1.0, 1.0);
  }

  p.corr_margin = span.score - cfg_.min_score;
}

std::size_t StreamingDemodulator::effective_sic_depth() const {
  // The ladder's first rung halves the most expensive work by capping
  // cancellation chains at one pass; rung 2 sheds the stage entirely.
  if (degradation_ >= 2) return 0;
  if (degradation_ >= 1) return std::min<std::size_t>(cfg_.sic.depth, 1);
  return cfg_.sic.depth;
}

void StreamingDemodulator::remember_start(std::uint64_t packet_start) {
  recent_starts_[recent_count_ % recent_starts_.size()] = packet_start;
  ++recent_count_;
}

void StreamingDemodulator::cancel_frame(const PacketSpan& span) {
  obs::ScopedTimer timer("sic_cancel",
                         stage_hist(cfg_, obs::Stage::kSicCancel));
  // Copy the frame span (with alignment padding where available) out
  // of the ring, subtract the reconstructed waveform, write the
  // residual back in place.
  const std::uint64_t radius = sic::kAlignRadius;
  const std::uint64_t lo =
      std::max(span.packet_start >= radius ? span.packet_start - radius : 0,
               rf_.begin());
  const std::uint64_t hi =
      std::min(span.packet_start + frame_len_ + radius, received_);
  const std::span<const dsp::Complex> view =
      rf_.view(lo, static_cast<std::size_t>(hi - lo));
  cancel_scratch_.assign(view.begin(), view.end());
  sic_->cancel(cancel_scratch_,
               static_cast<std::size_t>(span.packet_start - lo),
               symbols(packets_.back()));
  rf_.overwrite(lo, cancel_scratch_);
  ++frames_cancelled_;
  RescanRegion region;
  region.start = span.packet_start;
  region.len = frame_len_ + preamble_len_;  // a preamble can start
                                            // anywhere inside the frame
  region.ready_at = span.packet_start + frame_len_ + preamble_len_;
  region.depth = span.sic_depth + 1;
  rescans_.push_back(region);
}

bool StreamingDemodulator::process_rescan(const RescanRegion& region) {
  obs::ScopedTimer timer("sic_rescan",
                         stage_hist(cfg_, obs::Stage::kSicRescan));
  // A region flushed before its ready_at simply scans the clamped span.
  const std::uint64_t start = std::max(region.start, rf_.begin());
  const std::uint64_t end =
      std::min<std::uint64_t>(region.start + region.len, received_);
  if (end <= start || end - start < preamble_len_) {
    // Aged off the ring (or never materialized) before it could be
    // scanned — under load shedding this is expected loss.
    if (start > region.start) ++ingest_.rescans_expired;
    return false;
  }
  const std::size_t len = static_cast<std::size_t>(end - start);
  const std::span<const dsp::Complex> view = rf_.view(start, len);
  const std::optional<sic::RescanHit> hit = sic_->rescan(view);
  if (!hit.has_value()) return false;
  const std::uint64_t abs = start + hit->offset;
  PacketSpan s;
  s.packet_start = abs;
  s.payload_start = abs + preamble_len_;
  s.score = hit->score;
  s.sic_depth = region.depth;
  if (!admit_span(s)) return false;
  ++collision_groups_;
  // Flag the revealing frame, if the caller has not drained it yet.
  for (auto it = packets_.rbegin(); it != packets_.rend(); ++it) {
    if (it->packet_start == region.start) {
      it->collided = true;
      break;
    }
  }
  // A pileup can bury several preambles under one frame; once the
  // revealed frame is cancelled in turn, look at this span again.
  if (region.depth < effective_sic_depth()) {
    RescanRegion again = region;
    again.depth = region.depth + 1;
    again.ready_at = abs + frame_len_ + preamble_len_;
    rescans_.push_back(again);
  }
  return true;
}

bool StreamingDemodulator::admit_span(const PacketSpan& span) {
  // One admission check for scanner confirmations and rescan hits: a
  // partially overlapped preamble can clear the scanner threshold in
  // the mix *after* a rescan already framed it, so a span within half
  // a symbol of a pending or recently decoded frame is a duplicate.
  // Scanner confirmations are a template length apart, so this never
  // drops one against another.
  const std::uint64_t tol = cfg_.saiyan.phy.samples_per_symbol() / 2;
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
    if (near(pending_[i].packet_start, span.packet_start, tol)) return false;
  }
  const std::size_t known = std::min(recent_count_, recent_starts_.size());
  for (std::size_t i = 0; i < known; ++i) {
    if (near(recent_starts_[i], span.packet_start, tol)) return false;
  }
  // Pending stays in packet_start order, although rescan hits and
  // scanner confirmations arrive out of that order.
  const auto it = std::upper_bound(
      pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_),
      pending_.end(), span, [](const PacketSpan& a, const PacketSpan& b) {
        return a.packet_start < b.packet_start;
      });
  pending_.insert(it, span);
  return true;
}

void configure_for_trace(const TraceMeta& meta, StreamConfig& sc) {
  sc.saiyan = core::SaiyanConfig::make(meta.phy, meta.mode);
  sc.payload_symbols = meta.payload_symbols;
}

bool next_trace_chunk(TraceReader& reader, StreamingDemodulator& demod,
                      dsp::Signal& chunk) {
  const std::uint64_t skipped_before = reader.stats().bytes_skipped;
  const ChunkStatus st = reader.next_chunk(chunk);
  if (st == ChunkStatus::kResync ||
      (st == ChunkStatus::kEof &&
       reader.stats().bytes_skipped > skipped_before)) {
    demod.note_gap(reader.last_gap_samples());
  }
  return st == ChunkStatus::kOk || st == ChunkStatus::kResync;
}

}  // namespace saiyan::stream
