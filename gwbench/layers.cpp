// The traced layer drive: the same inputs through TraceReader and
// StreamingDemodulator directly, timed around each public call from
// here. The demodulator's own stage histograms (StreamConfig::
// stage_metrics) split the push time into scan, decode and SIC.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "gwbench.hpp"
#include "obs/link_telemetry.hpp"
#include "obs/stage_metrics.hpp"
#include "stream/streaming_demod.hpp"

namespace gwbench {

namespace {

double stage_s(const saiyan::obs::StageMetrics& m, saiyan::obs::Stage s) {
  return 1e-6 * static_cast<double>(m.histogram(s).sum_us());
}

std::uint64_t stage_count(const saiyan::obs::StageMetrics& m,
                          saiyan::obs::Stage s) {
  return m.histogram(s).total();
}

}  // namespace

LayerBudget drive_layers(const WorkloadSpec& spec, const InputSet& set,
                         double seconds, Oracle& oracle) {
  using saiyan::obs::Stage;
  const saiyan::gateway::GatewayConfig gcfg = gateway_config(spec);
  // Shared by every thread, as the gateway shares them across workers.
  saiyan::obs::StageMetrics stages;
  saiyan::obs::LinkTelemetry link(gcfg.link.capacity);
  std::atomic<std::size_t> next_job{0};
  std::mutex mu;  // budget, oracle
  LayerBudget b;

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));

  auto worker = [&] {
    saiyan::stream::StreamConfig sc = gcfg.worker_stream_config();
    sc.stage_metrics = &stages;
    sc.link_telemetry = gcfg.link.enabled ? &link : nullptr;
    saiyan::stream::StreamingDemodulator demod(sc);
    LayerBudget mine;
    Oracle verdict;
    saiyan::dsp::Signal chunk;
    auto push = [&](std::span<const saiyan::dsp::Complex> samples) {
      const Clock::time_point c0 = Clock::now();
      for (std::size_t off = 0; off < samples.size(); off += kChunkSamples) {
        demod.push(samples.subspan(off, std::min(kChunkSamples,
                                                 samples.size() - off)));
      }
      mine.demod_s += seconds_between(c0, Clock::now());
    };
    while (Clock::now() < deadline) {
      const std::size_t job = next_job.fetch_add(1);
      const Input& in = set.inputs[job % set.inputs.size()];
      if (spec.live) {
        push(in.iq);
      } else {
        Clock::time_point c0 = Clock::now();
        auto opened = saiyan::stream::TraceReader::open(in.path, gcfg.resync);
        mine.trace_s += seconds_between(c0, Clock::now());
        if (!opened.ok()) {
          verdict.fail("layer drive: " + opened.message());
          break;
        }
        saiyan::stream::TraceReader& reader = opened.value();
        for (;;) {
          c0 = Clock::now();
          const saiyan::stream::ChunkStatus st = reader.next_chunk(chunk);
          mine.trace_s += seconds_between(c0, Clock::now());
          if (st == saiyan::stream::ChunkStatus::kResync) {
            demod.note_gap(reader.last_gap_samples());
          } else if (st != saiyan::stream::ChunkStatus::kOk) {
            break;
          }
          push(chunk);
        }
        mine.trace_bytes += in.bytes;
        mine.trace_samples += reader.samples_read();
      }
      const Clock::time_point f0 = Clock::now();
      demod.finish();
      mine.demod_s += seconds_between(f0, Clock::now());

      std::vector<FrameKey> got;
      for (const saiyan::stream::DecodedPacket& p : demod.packets()) {
        const auto syms = demod.symbols(p);
        got.push_back({p.packet_start, {syms.begin(), syms.end()}});
      }
      check_job(in, std::move(got), "layer drive job " + std::to_string(job),
                verdict);
      mine.samples += demod.samples_consumed();
      mine.collisions_resolved += demod.collisions_resolved();
      mine.frames_cancelled += demod.frames_cancelled();
      demod.reset();
      demod.clear_packets();
    }
    std::lock_guard<std::mutex> lk(mu);
    b.trace_s += mine.trace_s;
    b.trace_bytes += mine.trace_bytes;
    b.trace_samples += mine.trace_samples;
    b.demod_s += mine.demod_s;
    b.samples += mine.samples;
    b.collisions_resolved += mine.collisions_resolved;
    b.frames_cancelled += mine.frames_cancelled;
    if (!verdict.ok) oracle.fail(verdict.message);
  };

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < spec.workers; ++w) {
    threads.emplace_back([&] {
      try {
        worker();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(mu);
        oracle.fail(std::string("layer drive: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  b.wall_s = seconds_between(t0, Clock::now());

  b.scan_s = stage_s(stages, Stage::kScan);
  b.decode_s = stage_s(stages, Stage::kDecode);
  b.cancel_s = stage_s(stages, Stage::kSicCancel);
  b.rescan_s = stage_s(stages, Stage::kSicRescan);
  b.scan_blocks = stage_count(stages, Stage::kScan);
  b.decodes = stage_count(stages, Stage::kDecode);
  b.cancels = stage_count(stages, Stage::kSicCancel);
  b.rescans = stage_count(stages, Stage::kSicRescan);
  return b;
}

}  // namespace gwbench
