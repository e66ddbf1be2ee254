// google-benchmark micro-kernels: the hot paths of the simulation
// stack (FFT, SAW filtering, envelope detection, correlation, full
// Saiyan decode and the end-to-end Monte-Carlo sweep).
#include <benchmark/benchmark.h>

#include "channel/awgn_channel.hpp"
#include "core/batch_demod.hpp"
#include "core/demodulator.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"
#include "frontend/cfs.hpp"
#include "frontend/envelope_detector.hpp"
#include "frontend/lna.hpp"
#include "dsp/noise.hpp"
#include "lora/chirp.hpp"
#include "lora/crc.hpp"
#include "frontend/saw_filter.hpp"
#include "lora/modulator.hpp"
#include "gateway/gateway.hpp"
#include "obs/link_telemetry.hpp"
#include "obs/stage_metrics.hpp"
#include "obs/trace_ring.hpp"
#include "sim/capture.hpp"
#include "sim/sweep_engine.hpp"
#include "stream/streaming_demod.hpp"

using namespace saiyan;

namespace {

lora::PhyParams phy() {
  lora::PhyParams p;
  p.spreading_factor = 7;
  p.bandwidth_hz = 500e3;
  p.sample_rate_hz = 4e6;
  p.bits_per_symbol = 2;
  return p;
}

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  dsp::Rng rng(1);
  dsp::Signal x(n);
  for (auto& v : x) v = dsp::Complex(rng.gaussian(), rng.gaussian());
  for (auto _ : state) {
    dsp::Signal y = x;
    dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384)->Arg(49152)->Arg(65536);

// Real-signal round trip on the half-length path: R2C (bins 0..n/2)
// then the raw C2R, at the scanner's 24576 and the rescan's 65536.
void BM_FftReal(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto plan = dsp::fft_plan(n);
  dsp::Rng rng(1);
  dsp::RealSignal x(n), y;
  for (auto& v : x) v = rng.gaussian();
  dsp::Signal spec, scratch;
  for (auto _ : state) {
    plan->forward_real_half(x, spec, scratch);
    plan->inverse_real_raw(spec, y, scratch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftReal)->Arg(24576)->Arg(65536);

// ---------------------------------------------------- per-sample kernels
// The runtime-dispatched SIMD passes (dsp/simd.hpp). range(0) selects
// the ISA: 0 = dispatched (native), 1 = forced scalar, so the JSON
// records both sides of every kernel that has an AVX2 variant. The
// gaussian kernels have none and run /0 only.

dsp::simd::Isa bench_isa(std::int64_t arg) {
  return arg == 1 ? dsp::simd::Isa::kScalar : dsp::simd::Isa::kAuto;
}

void BM_ScaleAddGaussian(benchmark::State& state) {
  // The AWGN channel pass over 2n doubles: fused draw + inject.
  constexpr std::size_t n = 2 * 49152;
  dsp::Rng data_rng(12);
  dsp::RealSignal x(n), out(n);
  for (auto& v : x) v = data_rng.gaussian();
  dsp::Rng rng(121);
  for (auto _ : state) {
    dsp::simd::scale_add_gaussian(x.data(), n, 1e-4, 1e-8, out.data(), rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ScaleAddGaussian)->Arg(0);

void BM_SumSquares(benchmark::State& state) {
  constexpr std::size_t n = 2 * 49152;
  dsp::Rng rng(14);
  dsp::RealSignal x(n);
  for (auto& v : x) v = rng.gaussian();
  dsp::simd::set_isa(bench_isa(state.range(0)));
  for (auto _ : state) {
    double s = dsp::simd::sum_squares(x.data(), n);
    benchmark::DoNotOptimize(s);
  }
  dsp::simd::set_isa(dsp::simd::Isa::kAuto);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SumSquares)->Arg(0)->Arg(1);

void BM_FillGaussian(benchmark::State& state) {
  constexpr std::size_t n = 2 * 49152;
  dsp::Rng rng(15);
  dsp::RealSignal out(n);
  for (auto _ : state) {
    dsp::simd::fill_gaussian(rng, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FillGaussian)->Arg(0);

void BM_SawFilter(benchmark::State& state) {
  const lora::PhyParams p = phy();
  const frontend::SawFilter saw;
  const dsp::Signal chirp = lora::upchirp(p, 0);
  for (auto _ : state) {
    dsp::Signal y = saw.filter(chirp, p.sample_rate_hz, 433.75e6);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SawFilter);

// One SAW round trip over the span sizes the serving path filters: the
// 8192-sample scan block, a 45 312-sample decode frame (a 49 152-point
// radix-3 transform) and a 57 856-sample SIC rescan region (65 536
// points). Workspace buffers are reused, as on the worker threads.
void BM_SawFilterSpan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const frontend::SawFilter saw;
  dsp::Rng rng(3);
  dsp::Signal x(n);
  for (auto& v : x) v = dsp::Complex(rng.gaussian(), rng.gaussian());
  dsp::Signal out, scratch;
  for (auto _ : state) {
    saw.filter_into(x, 4e6, 433.75e6, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SawFilterSpan)->Arg(8192)->Arg(45312)->Arg(57856);

void BM_EnvelopeDetector(benchmark::State& state) {
  frontend::EnvelopeDetectorConfig cfg;
  cfg.sample_rate_hz = 4e6;
  const frontend::EnvelopeDetector ed(cfg);
  dsp::Rng rng(2);
  const dsp::Signal x = dsp::complex_awgn(1 << 14, 1e-9, rng);
  frontend::FrontendScratch scratch;
  dsp::RealSignal y;
  for (auto _ : state) {
    ed.detect_ws(x, std::nullopt, &rng, y, scratch);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EnvelopeDetector);

// The noisy CFS front end of one 45 312-sample decode frame: LNA draws
// + square law, the flicker realization, and the one per-sample pass
// (impairments, IF bandpass, LO, output low-pass). range(0) selects
// the ISA as for the per-sample kernels (0 = dispatched, 1 = scalar).
void BM_NoisyFrontEnd(benchmark::State& state) {
  constexpr std::size_t n = 45312;
  const core::SaiyanConfig cfg =
      core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  const frontend::CyclicFrequencyShifter cfs(cfg.cfs, cfg.envelope);
  const frontend::LnaStage lna = frontend::Lna(cfg.lna).stage();
  dsp::Rng rng(4);
  const dsp::Signal x = dsp::complex_awgn(n, 1e-10, rng);
  frontend::FrontendScratch scratch;
  dsp::RealSignal out;
  dsp::simd::set_isa(bench_isa(state.range(0)));
  for (auto _ : state) {
    cfs.process_ws(x, lna, &rng, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  dsp::simd::set_isa(dsp::simd::Isa::kAuto);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_NoisyFrontEnd)->Arg(0)->Arg(1);

void BM_SaiyanDemodPacket(benchmark::State& state) {
  const auto mode = static_cast<core::Mode>(state.range(0));
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), mode);
  const core::SaiyanDemodulator demod(cfg);
  lora::Modulator mod(cfg.phy);
  dsp::Rng rng(3);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  const std::vector<std::uint32_t> tx(32, 2);
  const dsp::Signal rx = chan.apply(mod.modulate(tx), -55.0, rng);
  const lora::PacketLayout lay = mod.layout(tx.size());
  core::DemodWorkspace ws;
  for (auto _ : state) {
    demod.demodulate_aligned_ws(ws, rx, lay.payload_start, tx.size(), rng);
    benchmark::DoNotOptimize(ws.symbols.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SaiyanDemodPacket)
    ->Arg(static_cast<int>(core::Mode::kVanilla))
    ->Arg(static_cast<int>(core::Mode::kFrequencyShifting))
    ->Arg(static_cast<int>(core::Mode::kSuper));

void BM_BatchDecode(benchmark::State& state) {
  // The zero-allocation batch engine running the full per-packet sweep
  // loop — fresh payload, modulate, channel, aligned decode — through
  // one warm DemodWorkspace. items/sec = packets/sec; compare against
  // BM_SaiyanDemodPacket (the aligned decode alone, on the same warm
  // workspace form).
  const auto mode = static_cast<core::Mode>(state.range(0));
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), mode);
  core::BatchDemodulator batch(cfg);
  lora::Modulator mod(cfg.phy);
  channel::AwgnChannel chan(cfg.phy.sample_rate_hz, 6.0);
  core::DemodWorkspace& ws = batch.workspace();
  const lora::PacketLayout lay = mod.layout(32);
  dsp::Rng rng(16);
  for (auto _ : state) {
    ws.tx.resize(32);
    for (std::uint32_t& v : ws.tx) {
      v = static_cast<std::uint32_t>(
          rng.uniform_int(0, cfg.phy.symbol_alphabet() - 1));
    }
    mod.modulate_into(ws.tx, ws.wave);
    chan.apply_into(ws.wave, -55.0, rng, ws.rx);
    auto symbols = batch.decode_aligned(ws.rx, lay.payload_start, 32, rng);
    benchmark::DoNotOptimize(symbols.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BatchDecode)
    ->Arg(static_cast<int>(core::Mode::kVanilla))
    ->Arg(static_cast<int>(core::Mode::kFrequencyShifting))
    ->Arg(static_cast<int>(core::Mode::kSuper));

void BM_PreparedTemplateCorrelate(benchmark::State& state) {
  // A 1024-sample template prepared once, correlated into a warm
  // output buffer — the preamble matcher's steady state.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t t_len = 1024;
  dsp::Rng rng(5);
  dsp::RealSignal x(n), tmpl(t_len);
  for (auto& v : x) v = rng.gaussian();
  for (auto& v : tmpl) v = rng.gaussian();
  const dsp::PreparedTemplate prepared((std::span<const double>(tmpl)));
  dsp::RealSignal c;
  for (auto _ : state) {
    prepared.correlate_signed_into(std::span<const double>(x), c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
// 20735 is the packet scanner's window: one 8192-sample block plus
// 12543 samples of history (the envelope template's length less one);
// 57600 is the SIC rescan's window (65536-point transform).
BENCHMARK(BM_PreparedTemplateCorrelate)
    ->Arg(16384)
    ->Arg(20735)
    ->Arg(57600)
    ->Arg(65536);

void BM_Crc16(benchmark::State& state) {
  // One trace chunk: 16384 float64 IQ samples, the bytes TraceReader
  // checks per chunk on a v1 trace.
  std::vector<std::uint8_t> chunk(256 * 1024);
  dsp::Rng rng(6);
  for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lora::crc16(chunk));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk.size()));
}
BENCHMARK(BM_Crc16);

void BM_PreparedTemplateDecodeStream(benchmark::State& state) {
  // Correlation-mode symbol decode over a clean reference envelope:
  // exercises the cached symbol templates end to end.
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  const core::ReceiverChain chain(cfg);
  const core::CorrelatorDecoder decoder(chain);
  lora::Modulator mod(cfg.phy);
  const std::vector<std::uint32_t> tx = {0, 1, 2, 3, 2, 1, 0, 3,
                                         1, 3, 0, 2, 3, 0, 1, 2};
  const dsp::Signal wave = mod.modulate(tx);
  const dsp::RealSignal env = chain.reference_envelope(wave);
  const lora::PacketLayout lay = mod.layout(tx.size());
  std::vector<std::uint32_t> symbols;
  for (auto _ : state) {
    decoder.decode_stream_into(env, lay.payload_start, tx.size(), symbols);
    benchmark::DoNotOptimize(symbols.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tx.size()));
}
BENCHMARK(BM_PreparedTemplateDecodeStream);

void BM_DemodulatorConstruction(benchmark::State& state) {
  // Sweep-point setup cost: dominated by reference-chain runs before
  // the template cache, by hash lookups after.
  const core::SaiyanConfig cfg = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  for (auto _ : state) {
    core::SaiyanDemodulator demod(cfg);
    benchmark::DoNotOptimize(&demod);
  }
}
BENCHMARK(BM_DemodulatorConstruction);

void BM_StreamReplay(benchmark::State& state) {
  // Streaming continuous-capture decode of a multi-tag gateway
  // capture: ring carry-over, blockwise scan envelope, incremental
  // preamble correlation and framed batch decode, end to end.
  // items/sec = decoded packets/sec (gwbench's trace_dense and
  // live_sparse workloads measure the duty-cycle extremes end to end).
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = 16;
  cfg.packets_per_tag = 3;
  cfg.seed = 5;
  cfg.tag_rss_dbm = {-55.0, -58.0};
  const sim::Capture cap = sim::generate_capture(cfg);
  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  stream::StreamingDemodulator demod(sc);
  std::size_t decoded = 0;
  for (auto _ : state) {
    demod.reset();
    demod.clear_packets();
    std::span<const dsp::Complex> rest(cap.samples);
    while (!rest.empty()) {
      const std::size_t take = std::min<std::size_t>(16384, rest.size());
      demod.push(rest.first(take));
      rest = rest.subspan(take);
    }
    demod.finish();
    decoded += demod.packets().size();
    benchmark::DoNotOptimize(demod.packets().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
}
BENCHMARK(BM_StreamReplay);

void BM_TracingOverhead(benchmark::State& state) {
  // The BM_StreamReplay workload with per-stage observability
  // attached: range(0)==0 runs with stage histograms only (tracing
  // disabled), range(0)==1 additionally enables the per-thread trace
  // ring so every scan/decode stage emits a timeline event. Both arms
  // attach StageMetrics so the delta isolates ring emission; the
  // BENCH gate keeps the tracing-on arm within a few percent of off.
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = 16;
  cfg.packets_per_tag = 3;
  cfg.seed = 5;
  cfg.tag_rss_dbm = {-55.0, -58.0};
  const sim::Capture cap = sim::generate_capture(cfg);
  obs::StageMetrics metrics;
  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  sc.stage_metrics = &metrics;
  stream::StreamingDemodulator demod(sc);
  obs::reset_for_test();
  obs::set_enabled(state.range(0) == 1);
  std::size_t decoded = 0;
  for (auto _ : state) {
    demod.reset();
    demod.clear_packets();
    std::span<const dsp::Complex> rest(cap.samples);
    while (!rest.empty()) {
      const std::size_t take = std::min<std::size_t>(16384, rest.size());
      demod.push(rest.first(take));
      rest = rest.subspan(take);
    }
    demod.finish();
    decoded += demod.packets().size();
    benchmark::DoNotOptimize(demod.packets().data());
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
  state.counters["stage_samples"] =
      static_cast<double>(metrics.histogram(obs::Stage::kScan).total() +
                          metrics.histogram(obs::Stage::kDecode).total());
}
BENCHMARK(BM_TracingOverhead)->Arg(0)->Arg(1);

void BM_LinkTelemetryOverhead(benchmark::State& state) {
  // The BM_StreamReplay workload with the link-telescope sink:
  // range(0)==0 runs without a LinkTelemetry attached (baseline),
  // range(0)==1 attaches one, so every block considers noise sampling
  // and every decode fills the per-frame diag (SNR, CFO, timing,
  // margin) and folds it into the registry. The BENCH gate keeps the
  // on arm within noise of off — per-frame diagnostics must stay
  // invisible next to the decode FFTs.
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = 16;
  cfg.packets_per_tag = 3;
  cfg.seed = 5;
  cfg.tag_rss_dbm = {-55.0, -58.0};
  const sim::Capture cap = sim::generate_capture(cfg);
  obs::LinkTelemetry telemetry;
  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  sc.link_telemetry = state.range(0) == 1 ? &telemetry : nullptr;
  stream::StreamingDemodulator demod(sc);
  std::size_t decoded = 0;
  for (auto _ : state) {
    demod.reset();
    demod.clear_packets();
    std::span<const dsp::Complex> rest(cap.samples);
    while (!rest.empty()) {
      const std::size_t take = std::min<std::size_t>(16384, rest.size());
      demod.push(rest.first(take));
      rest = rest.subspan(take);
    }
    demod.finish();
    // Fold the diags like the gateway's emit_frames does, so the on
    // arm pays the registry write too, not just the estimators.
    if (state.range(0) == 1) {
      for (const stream::DecodedPacket& p : demod.packets()) {
        const auto syms = demod.symbols(p);
        obs::FrameDiag d;
        d.tag_id = syms.empty() ? 0 : syms[0];
        d.snr_db = p.snr_db;
        d.cfo_hz = p.cfo_hz;
        d.timing_offset = p.timing_offset;
        d.corr_margin = p.corr_margin;
        d.packet_start = p.packet_start;
        telemetry.record_frame(d);
      }
    }
    decoded += demod.packets().size();
    benchmark::DoNotOptimize(demod.packets().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
  state.counters["frames_recorded"] =
      static_cast<double>(telemetry.frames_total());
}
BENCHMARK(BM_LinkTelemetryOverhead)->Arg(0)->Arg(1);

void BM_GatewayReplay(benchmark::State& state) {
  // The same capture as BM_StreamReplay served through the
  // gateway::Gateway facade (enqueue_trace + drain on one worker):
  // measures the full serving path — trace re-open, warm-demodulator
  // job dispatch, frame fan-out to a subscriber, stats publication —
  // on top of the raw streaming decode. items/sec = served frames/sec;
  // the gap to BM_StreamReplay is the facade overhead.
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = 16;
  cfg.packets_per_tag = 3;
  cfg.seed = 5;
  cfg.tag_rss_dbm = {-55.0, -58.0};
  const sim::Capture cap = sim::generate_capture(cfg);
  const char* path = "bm_gateway_replay.sytrc";
  sim::write_capture(cap, cfg, path);
  gateway::GatewayConfig gcfg;
  auto gw = gateway::Gateway::create(gcfg);
  if (!gw.ok()) {
    state.SkipWithError(gw.message().c_str());
    return;
  }
  std::atomic<std::uint64_t> frames{0};
  gw.value()->subscribe(
      [&](const gateway::FrameRecord&) { frames.fetch_add(1); });
  for (auto _ : state) {
    auto job = gw.value()->enqueue_trace(path);
    benchmark::DoNotOptimize(job.ok());
    if (auto r = gw.value()->drain(); !r.ok()) {
      state.SkipWithError(r.message().c_str());
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(frames.load()));
  std::remove(path);
}
BENCHMARK(BM_GatewayReplay);

void BM_SicResolve(benchmark::State& state) {
  // Collision resolution end to end: a two-tag capture whose frames
  // overlap 6 dB apart streams through the SIC path (decode strongest,
  // remodulate + least-squares fit + scaled-subtract, rescan the
  // residual, decode the revealed weaker frame). items/sec = resolved
  // collisions/sec.
  sim::CaptureConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.payload_symbols = 16;
  cfg.seed = 77;
  cfg.tag_rss_dbm = {-55.0, -61.0};
  const std::size_t spsym = cfg.saiyan.phy.samples_per_symbol();
  const lora::Modulator mod(cfg.saiyan.phy);
  const std::size_t frame = mod.layout(cfg.payload_symbols).total_samples;
  std::uint64_t cursor = 500;
  for (std::size_t p = 0; p < 4; ++p) {
    cfg.offsets.push_back(cursor);
    cfg.offsets.push_back(cursor + (8 + 3 * p) * spsym);
    cursor += 2 * frame + 12 * spsym;
  }
  const sim::Capture cap = sim::generate_capture(cfg);
  stream::StreamConfig sc;
  sc.saiyan = cfg.saiyan;
  sc.payload_symbols = cfg.payload_symbols;
  sc.sic.depth = 2;
  stream::StreamingDemodulator demod(sc);
  std::size_t resolved = 0;
  for (auto _ : state) {
    demod.reset();
    demod.clear_packets();
    std::span<const dsp::Complex> rest(cap.samples);
    while (!rest.empty()) {
      const std::size_t take = std::min<std::size_t>(16384, rest.size());
      demod.push(rest.first(take));
      rest = rest.subspan(take);
    }
    demod.finish();
    resolved += demod.collisions_resolved();
    benchmark::DoNotOptimize(demod.packets().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(resolved));
}
BENCHMARK(BM_SicResolve);

void BM_FullSweepThroughput(benchmark::State& state) {
  // End-to-end Monte-Carlo sweep: BER curve over an RSS grid, the
  // workload behind every figure reproduction. items/sec = packets/sec.
  const unsigned threads = static_cast<unsigned>(state.range(0));
  sim::PipelineConfig cfg;
  cfg.saiyan = core::SaiyanConfig::make(phy(), core::Mode::kSuper);
  cfg.seed = 42;
  const std::vector<double> rss = {-70.0, -74.0, -78.0, -82.0, -86.0};
  const std::size_t packets_per_point = 2;
  const sim::SweepEngine engine(threads);
  for (auto _ : state) {
    std::vector<sim::PipelineResult> results =
        sim::sweep_rss(cfg, rss, packets_per_point, engine);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rss.size() * packets_per_point));
}
BENCHMARK(BM_FullSweepThroughput)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
