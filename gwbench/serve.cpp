// Serving through the public gateway::Gateway API: the closed loop of
// trace jobs, the open loop of live pushes, and the frame sink the
// latency and the oracle are measured from.
#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "gwbench.hpp"

namespace gwbench {

using saiyan::gateway::FrameRecord;
using saiyan::gateway::Gateway;
using saiyan::gateway::GatewayStats;
using saiyan::gateway::JobState;

/// Subscriber: stamps each frame on arrival in the callback.
class Sink {
 public:
  struct Arrival {
    std::uint64_t job = 0;
    FrameKey key;
    Clock::time_point at;
  };

  Sink() { arrivals_.reserve(kReserve); }

  void on_frame(const FrameRecord& fr) {
    Arrival a{fr.job, {fr.packet_start, fr.symbols}, Clock::now()};
    std::lock_guard<std::mutex> lk(mu_);
    arrivals_.push_back(std::move(a));
  }

  std::vector<Arrival> take() {
    std::vector<Arrival> out;
    out.reserve(kReserve);
    std::lock_guard<std::mutex> lk(mu_);
    out.swap(arrivals_);
    return out;
  }

 private:
  // Room for a whole run, so the vector never reallocates mid-serve (a
  // reallocation would copy every arrival and show in rss_growth_mb).
  static constexpr std::size_t kReserve = 8192;
  std::mutex mu_;
  std::vector<Arrival> arrivals_;
};

Server::Server() = default;
Server::~Server() = default;
Server::Server(Server&&) noexcept = default;
Server& Server::operator=(Server&&) noexcept = default;

namespace {

const saiyan::dsp::Signal& silence() {
  static const saiyan::dsp::Signal zeros(kChunkSamples);
  return zeros;
}

void must(const saiyan::Result<saiyan::Unit>& r, const char* what) {
  if (!r.ok()) throw std::runtime_error(std::string(what) + ": " + r.message());
}

/// One job the run offered, and when its frames' data was due.
struct JobRec {
  std::uint64_t id = 0;  ///< gateway job id (trace jobs; live: by rank)
  std::size_t input = 0;
  Clock::time_point origin;  ///< when sample 0 was due
  double rate = 0.0;         ///< live: samples/s; trace: 0 = all due at origin
};

/// Samples the workers' busy flags from Gateway::health() every
/// millisecond (wait-free for the workers).
class BusySampler {
 public:
  BusySampler(const Gateway& gw, std::size_t workers)
      : busy_(workers, 0), thr_([this, &gw] { run(gw); }) {}
  ~BusySampler() { stop(); }
  BusySampler(const BusySampler&) = delete;
  BusySampler& operator=(const BusySampler&) = delete;

  std::vector<double> stop() {
    stop_.store(true);
    if (thr_.joinable()) thr_.join();
    std::vector<double> share;
    for (const std::uint64_t b : busy_) {
      share.push_back(polls_ == 0 ? 0.0
                                  : static_cast<double>(b) /
                                        static_cast<double>(polls_));
    }
    return share;
  }

 private:
  void run(const Gateway& gw) {
    while (!stop_.load()) {
      const saiyan::gateway::GatewayHealth h = gw.health();
      for (std::size_t i = 0; i < busy_.size() && i < h.workers.size(); ++i) {
        busy_[i] += h.workers[i].busy ? 1 : 0;
      }
      ++polls_;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::uint64_t> busy_;
  std::uint64_t polls_ = 0;
  std::thread thr_;  // last: starts after the members it uses
};

const saiyan::gateway::StageLatencySnapshot* stage(const GatewayStats& s,
                                                   const std::string& name) {
  for (const auto& st : s.stages) {
    if (name == st.stage) return &st;
  }
  return nullptr;
}

}  // namespace

Server start_server(const WorkloadSpec& spec, const InputSet& set) {
  auto created = Gateway::create(gateway_config(spec));
  if (!created.ok()) {
    throw std::runtime_error("Gateway::create: " + created.message());
  }
  Server s;
  s.sink = std::make_unique<Sink>();
  s.gateway = std::move(created).value();
  Sink* sink = s.sink.get();
  s.gateway->subscribe([sink](const FrameRecord& fr) { sink->on_frame(fr); });
  // One warm-up job per worker (jobs go round-robin), so every worker
  // has built its demodulator before the measured window.
  for (std::size_t w = 0; w < spec.workers; ++w) {
    if (spec.live) {
      const auto id = s.gateway->open_stream();
      must(s.gateway->push(id, silence()), "warm-up push");
      must(s.gateway->close_stream(id), "warm-up close");
    } else {
      auto id = s.gateway->enqueue_trace(set.warmup_path);
      if (!id.ok()) throw std::runtime_error("warm-up: " + id.message());
    }
  }
  must(s.gateway->drain(), "warm-up drain");
  s.sink->take();
  return s;
}

ServeResult serve(Server& server, const WorkloadSpec& spec, const InputSet& set,
                  double seconds, bool traced, Oracle& oracle) {
  Gateway& gw = *server.gateway;
  const GatewayStats s0 = gw.stats();
  ServeResult r;
  r.workers = spec.workers;
  r.rss_start_mb = r.rss_peak_mb = rss_mb();
  std::optional<BusySampler> sampler;
  if (traced) sampler.emplace(gw, spec.workers);

  std::vector<JobRec> jobs;
  std::uint64_t offered_chunks = 0;
  std::uint64_t rejected = 0;
  std::uint64_t pushes = 0;
  std::uint64_t backlog_sum = 0, backlog_samples = 0;
  Clock::time_point last_rss = Clock::now();
  auto note_rss = [&] {
    const Clock::time_point now = Clock::now();
    if (now - last_rss >= std::chrono::milliseconds(10)) {
      r.rss_peak_mb = std::max(r.rss_peak_mb, rss_mb());
      last_rss = now;
    }
  };
  // Sampled after every enqueue/push: work offered but not yet ingested.
  auto note_backlog = [&] {
    const std::uint64_t ingested = gw.stats().chunks_ingested - s0.chunks_ingested;
    const std::uint64_t backlog = offered_chunks > ingested ? offered_chunks - ingested : 0;
    r.backlog_max_chunks = std::max(r.backlog_max_chunks, backlog);
    backlog_sum += backlog;
    ++backlog_samples;
    note_rss();
  };

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::size_t next_input = 0;
  if (!spec.live) {
    // Closed loop in rounds: offer `window` jobs (round-robin gives each
    // worker window/workers of them, the same inputs on every worker),
    // wait until all have finished, offer the next round. Starting every
    // round together keeps the workers in step: with a sliding window
    // their speeds drift apart and the queue wait of later jobs with them.
    auto offer = [&] {
      const std::size_t idx = next_input++ / spec.workers % set.inputs.size();
      const Clock::time_point c0 = Clock::now();
      auto id = gw.enqueue_trace(set.inputs[idx].path);
      const Clock::time_point c1 = Clock::now();
      if (traced) r.call_us.push_back(1e6 * seconds_between(c0, c1));
      if (!id.ok()) {
        ++rejected;
        return;
      }
      jobs.push_back({id.value(), idx, c0, 0.0});
      offered_chunks += set.inputs[idx].chunks;
      note_backlog();
    };
    std::this_thread::sleep_until(t0);
    while (Clock::now() < deadline) {
      const std::size_t round = jobs.size();
      for (std::size_t i = 0; i < spec.window; ++i) offer();
      for (std::size_t k = round; k < jobs.size(); ++k) {
        for (;;) {
          auto st = gw.job_status(jobs[k].id);
          if (!st.ok() || st.value().state != JobState::kPending) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          note_rss();
        }
      }
    }
  } else {
    // Open loop: chunk k of the stream is pushed when its last sample
    // is due at the offered rate, whether or not the gateway keeps up.
    // Streams follow each other without a gap in the schedule.
    const double rate = spec.offered_rate;
    std::uint64_t base = 0;  // schedule position of the stream's sample 0
    auto due = [&](std::uint64_t sample) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(sample / rate));
    };
    while (Clock::now() < deadline) {
      const std::size_t idx = next_input++ % set.inputs.size();
      const Input& in = set.inputs[idx];
      const auto sid = gw.open_stream();
      jobs.push_back({0, idx, due(base), rate});
      const std::span<const saiyan::dsp::Complex> all(in.iq);
      for (std::size_t off = 0; off < all.size(); off += kChunkSamples) {
        const std::size_t len = std::min(kChunkSamples, all.size() - off);
        const Clock::time_point when = due(base + off + len);
        std::this_thread::sleep_until(when);
        const Clock::time_point c0 = Clock::now();
        r.generator_late_max_ms =
            std::max(r.generator_late_max_ms, 1e3 * seconds_between(when, c0));
        const auto pushed = gw.push(sid, all.subspan(off, len));
        if (traced) r.call_us.push_back(1e6 * seconds_between(c0, Clock::now()));
        ++pushes;
        if (!pushed.ok()) {
          ++rejected;
          continue;
        }
        ++offered_chunks;
        note_backlog();
      }
      must(gw.close_stream(sid), "close_stream");
      base += in.samples;
    }
  }
  const Clock::time_point t_end = Clock::now();
  const GatewayStats s1 = gw.stats();
  r.window_s = seconds_between(t0, t_end);
  r.samples = s1.samples_consumed - s0.samples_consumed;
  r.backlog_mean_chunks = backlog_samples == 0
                              ? 0.0
                              : static_cast<double>(backlog_sum) /
                                    static_cast<double>(backlog_samples);
  r.rss_peak_mb = std::max(r.rss_peak_mb, rss_mb());
  must(gw.drain(), "drain");
  if (sampler) r.busy_share = sampler->stop();
  const GatewayStats s2 = gw.stats();

  // jobs_failed counts failed and cancelled jobs of both kinds.
  const std::uint64_t failed_jobs = s2.jobs_failed - s0.jobs_failed;
  const std::uint64_t dropped = s2.ingest.frames_dropped_subscriber -
                                s0.ingest.frames_dropped_subscriber;
  r.attempted = jobs.size() + pushes + (s2.frames_decoded - s0.frames_decoded);
  r.failed = failed_jobs + rejected + dropped;
  if (traced) {
    const auto* d0 = stage(s0, "deliver");
    const auto* d2 = stage(s2, "deliver");
    if (d0 != nullptr && d2 != nullptr) {
      r.deliver_count = d2->count - d0->count;
      r.deliver_busy_s = 1e-6 * static_cast<double>(d2->sum_us - d0->sum_us);
    }
  }

  // Attribute frames to jobs. Trace jobs carry the id enqueue_trace
  // returned; live streams are served in open order on one worker, so
  // the i-th distinct job id delivered belongs to the i-th stream.
  std::vector<Sink::Arrival> arrivals = server.sink->take();
  std::map<std::uint64_t, std::size_t> job_of;  // frame job id -> jobs index
  if (spec.live) {
    std::vector<std::uint64_t> ids;
    for (const auto& a : arrivals) ids.push_back(a.job);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (ids.size() != jobs.size()) {
      oracle.fail("frames from " + std::to_string(ids.size()) + " streams, " +
                  std::to_string(jobs.size()) + " streams served");
    }
    for (std::size_t i = 0; i < ids.size() && i < jobs.size(); ++i) {
      job_of[ids[i]] = i;
    }
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) job_of[jobs[i].id] = i;
  }
  std::vector<std::vector<FrameKey>> per_job(jobs.size());
  r.latency_ms.reserve(arrivals.size());
  for (Sink::Arrival& a : arrivals) {
    const auto it = job_of.find(a.job);
    if (it == job_of.end()) {
      oracle.fail("frame from unknown job " + std::to_string(a.job));
      continue;
    }
    const JobRec& j = jobs[it->second];
    Clock::time_point due = j.origin;
    if (j.rate > 0.0) {
      due += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          static_cast<double>(a.key.packet_start + set.frame_samples) / j.rate));
    }
    r.latency_ms.push_back(1e3 * seconds_between(due, a.at));
    per_job[it->second].push_back(std::move(a.key));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Input& in = set.inputs[jobs[i].input];
    r.frames_ok += count_ok(per_job[i], in.markers, set.tolerance);
    r.markers += in.markers.size();
    check_job(in, std::move(per_job[i]), "gateway job " + std::to_string(i), oracle);
  }
  return r;
}

}  // namespace gwbench
