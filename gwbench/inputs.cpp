// Workload definitions, input generation with an on-disk cache, and the
// offline reference decode the oracle compares the gateway against.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "dsp/rng.hpp"
#include "gwbench.hpp"
#include "lora/modulator.hpp"
#include "sim/capture.hpp"
#include "stream/streaming_demod.hpp"

namespace gwbench {

namespace fs = std::filesystem;
using saiyan::stream::TraceMarker;

namespace {

/// Bumped whenever generation changes, so stale caches are not reused.
constexpr const char* kInputFormat = "v2";
constexpr std::size_t kPayloadSymbols = 32;

saiyan::lora::PhyParams default_phy() {
  saiyan::lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = kSampleRateHz;
  p.bits_per_symbol = 2;
  return p;
}

saiyan::core::SaiyanConfig receiver() {
  return saiyan::core::SaiyanConfig::make(default_phy(),
                                          saiyan::core::Mode::kSuper);
}

/// Capture `index` of (spec, seed). `smoke` keeps the shape but few frames.
saiyan::sim::CaptureConfig capture_config(const WorkloadSpec& spec,
                                          std::uint64_t seed, std::size_t index,
                                          bool smoke) {
  saiyan::sim::CaptureConfig cfg;
  cfg.saiyan = receiver();
  cfg.payload_symbols = kPayloadSymbols;
  const std::uint64_t salt = spec.name == "trace_dense"   ? 1
                             : spec.name == "live_sparse" ? 2
                                                          : 3;
  cfg.seed = saiyan::dsp::derive_stream_seed(seed, salt * 64 + index);
  if (spec.name == "trace_dense") {
    // ~98 % airtime: 4 tags, 0–2-symbol gaps.
    cfg.tag_rss_dbm = {-55.0, -57.0, -59.0, -61.0};
    cfg.packets_per_tag = smoke ? 1 : 6;
    cfg.min_gap_symbols = 0.0;
    cfg.max_gap_symbols = 2.0;
  } else if (spec.name == "live_sparse") {
    // ~39 % airtime: 4 tags, 48–96-symbol gaps. Frame latency depends
    // on where a frame ends relative to the push-chunk grid (up to one
    // chunk of waiting), so frame ends are stratified over the chunk
    // period across the seed's captures: a run's latency distribution
    // then does not hinge on where a few dozen frames happen to fall.
    cfg.tag_rss_dbm = {-55.0, -57.0, -59.0, -61.0};
    const std::size_t frames = smoke ? 4 : 16;
    const std::size_t strata = frames * spec.n_inputs;
    const std::uint64_t width = kChunkSamples / strata;
    const std::uint64_t spsym = cfg.saiyan.phy.samples_per_symbol();
    const std::uint64_t frame =
        saiyan::lora::Modulator(cfg.saiyan.phy).layout(kPayloadSymbols)
            .total_samples;
    saiyan::dsp::Rng rng(cfg.seed);
    std::vector<std::uint64_t> phase;
    for (std::size_t k = 0; k < frames; ++k) {
      phase.push_back((k * spec.n_inputs + index) * width +
                      rng.uniform_int(0, width - 1));
    }
    std::shuffle(phase.begin(), phase.end(), rng.engine());
    std::uint64_t end = 0;  // one past the previous frame
    for (std::size_t p = 0; p < frames; ++p) {
      // A gap of 64–96 symbols, shortened by < 16 symbols (one chunk)
      // so this frame ends at its phase: 48–96 symbols in all.
      std::uint64_t start = end + rng.uniform_int(64 * spsym, 96 * spsym);
      start -= (start + frame + kChunkSamples - phase[p]) % kChunkSamples;
      cfg.offsets.push_back(start);
      end = start + frame;
    }
  } else {
    // 2 tags 6 dB apart; a colliding pair (the weaker frame starts 8–19
    // symbols into the stronger one) then 4 clean frames, so 1 frame in
    // 3 collides.
    cfg.tag_rss_dbm = {-55.0, -61.0};
    const std::size_t spsym = cfg.saiyan.phy.samples_per_symbol();
    const std::size_t frame =
        saiyan::lora::Modulator(cfg.saiyan.phy).layout(kPayloadSymbols)
            .total_samples;
    saiyan::dsp::Rng rng(cfg.seed);
    const std::size_t pairs = smoke ? 1 : 4;
    const std::size_t clean = smoke ? 1 : 4;
    std::uint64_t cursor = 500;
    for (std::size_t p = 0; p < pairs; ++p) {
      cfg.offsets.push_back(cursor);
      cfg.offsets.push_back(cursor + (8 + rng.uniform_int(0, 11)) * spsym);
      cursor += 2 * frame + 12 * spsym;
      for (std::size_t c = 0; c < clean; ++c) {
        cfg.offsets.push_back(cursor);
        cursor += frame + 10 * spsym;
      }
    }
  }
  return cfg;
}

/// A one-chunk trace of silence with the workload's PHY and format: the
/// warm-up job that builds each worker's demodulator.
void write_warmup(const WorkloadSpec& spec, const std::string& path) {
  saiyan::stream::TraceMeta meta;
  meta.phy = default_phy();
  meta.mode = saiyan::core::Mode::kSuper;
  meta.payload_symbols = kPayloadSymbols;
  meta.float32_samples = spec.float32;
  saiyan::stream::TraceWriter w(path, meta);
  const saiyan::dsp::Signal zeros(kChunkSamples);
  w.write_chunk(zeros);
  if (auto r = w.finish(); !r.ok()) {
    throw std::runtime_error("write " + path + ": " + r.message());
  }
}

/// Read header, markers and (for live workloads) the samples of a trace.
Input load_input(const std::string& path, bool keep_samples) {
  auto opened = saiyan::stream::TraceReader::open(path);
  if (!opened.ok()) {
    throw std::runtime_error("open " + path + ": " + opened.message());
  }
  saiyan::stream::TraceReader& reader = opened.value();
  Input in;
  in.path = path;
  in.markers = reader.markers();
  in.samples = reader.meta().total_samples;
  in.chunks = (in.samples + kChunkSamples - 1) / kChunkSamples;
  in.bytes = fs::file_size(path);
  if (keep_samples) {
    in.iq.reserve(in.samples);
    saiyan::dsp::Signal chunk;
    while (reader.next_chunk(chunk) == saiyan::stream::ChunkStatus::kOk) {
      in.iq.insert(in.iq.end(), chunk.begin(), chunk.end());
    }
    if (in.iq.size() != in.samples) {
      throw std::runtime_error("short read of " + path);
    }
  }
  return in;
}

/// The offline oracle: one StreamingDemodulator over the same input the
/// gateway sees, chunked the same way.
void reference_decode(const WorkloadSpec& spec, Input& in) {
  saiyan::stream::StreamingDemodulator demod(
      gateway_config(spec).worker_stream_config());
  if (spec.live) {
    const std::span<const saiyan::dsp::Complex> all(in.iq);
    for (std::size_t off = 0; off < all.size(); off += kChunkSamples) {
      demod.push(all.subspan(off, std::min(kChunkSamples, all.size() - off)));
    }
  } else {
    saiyan::stream::TraceReader reader(in.path, /*recover=*/true);
    saiyan::dsp::Signal chunk;
    while (reader.next_chunk(chunk) == saiyan::stream::ChunkStatus::kOk) {
      demod.push(chunk);
    }
  }
  demod.finish();
  in.reference.clear();
  for (const saiyan::stream::DecodedPacket& p : demod.packets()) {
    const auto syms = demod.symbols(p);
    in.reference.push_back({p.packet_start, {syms.begin(), syms.end()}});
  }
  std::sort(in.reference.begin(), in.reference.end());
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "trace_dense") {
    s.workers = 1;
    s.window = 1;
  } else if (name == "live_sparse") {
    s.live = true;
    s.offered_rate = 0.25 * kSampleRateHz;
  } else if (name == "trace_collide_mt") {
    s.workers = 2;
    s.window = 4;
    s.float32 = true;
    s.sic_depth = 2;
    s.n_inputs = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (trace_dense, live_sparse, trace_collide_mt)");
  }
  return s;
}

saiyan::gateway::GatewayConfig gateway_config(const WorkloadSpec& spec) {
  saiyan::gateway::GatewayConfig cfg;
  cfg.workers = spec.workers;
  cfg.chunk_samples = kChunkSamples;
  cfg.stream.saiyan = receiver();
  cfg.stream.payload_symbols = kPayloadSymbols;
  cfg.stream.sic.depth = spec.sic_depth;
  return cfg;
}

std::size_t count_ok(const std::vector<FrameKey>& frames,
                     const std::vector<TraceMarker>& markers,
                     std::size_t tolerance) {
  std::vector<bool> used(markers.size(), false);
  std::size_t ok = 0;
  for (const FrameKey& f : frames) {
    for (std::size_t m = 0; m < markers.size(); ++m) {
      const std::uint64_t off = markers[m].sample_offset;
      const bool near = f.packet_start + tolerance >= off &&
                        off + tolerance >= f.packet_start;
      if (!used[m] && near && markers[m].symbols == f.symbols) {
        used[m] = true;
        ++ok;
        break;
      }
    }
  }
  return ok;
}

void check_job(const Input& in, std::vector<FrameKey> got,
               const std::string& what, Oracle& oracle) {
  std::sort(got.begin(), got.end());
  if (got == in.reference) return;
  std::size_t i = 0;
  while (i < got.size() && i < in.reference.size() && got[i] == in.reference[i]) {
    ++i;
  }
  oracle.fail(what + " (" + in.path + "): " + std::to_string(got.size()) +
              " frames delivered, offline pass decoded " +
              std::to_string(in.reference.size()) + "; first difference at frame " +
              std::to_string(i));
}

InputSet prepare_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                        bool smoke, const std::string& cache_dir) {
  InputSet set;
  const fs::path dir = fs::path(cache_dir) /
                       (spec.name + "-s" + std::to_string(seed) + "-n" +
                        std::to_string(spec.n_inputs) + (smoke ? "-smoke" : "") +
                        "-" + kInputFormat);
  const fs::path stamp = dir / "complete";
  auto input_path = [&](std::size_t i) {
    return (dir / ("input" + std::to_string(i) + ".sytrc")).string();
  };
  set.warmup_path = (dir / "warmup.sytrc").string();

  const Clock::time_point t0 = Clock::now();
  set.cached = fs::exists(stamp);
  if (!set.cached) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (std::size_t i = 0; i < spec.n_inputs; ++i) {
      const saiyan::sim::CaptureConfig cfg = capture_config(spec, seed, i, smoke);
      saiyan::sim::write_capture(saiyan::sim::generate_capture(cfg), cfg,
                                 input_path(i), kChunkSamples, spec.float32);
    }
    write_warmup(spec, set.warmup_path);
    std::ofstream(stamp) << "ok\n";
  }
  const Clock::time_point t1 = Clock::now();
  if (!set.cached) set.gen_s = seconds_between(t0, t1);

  const saiyan::lora::PhyParams phy = default_phy();
  set.frame_samples =
      saiyan::lora::Modulator(phy).layout(kPayloadSymbols).total_samples;
  set.tolerance = phy.samples_per_symbol() / 2;
  // Sequential on purpose: the serving process's heap (and with it
  // rss_growth_mb) then starts from the same state in every run.
  for (std::size_t i = 0; i < spec.n_inputs; ++i) {
    set.inputs.push_back(load_input(input_path(i), spec.live));
    reference_decode(spec, set.inputs.back());
  }
  set.reference_s = seconds_between(t1, Clock::now());
  return set;
}

}  // namespace gwbench
