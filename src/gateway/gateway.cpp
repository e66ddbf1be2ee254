#include "gateway/gateway.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "gateway/degradation.hpp"
#include "obs/seqlock.hpp"
#include "obs/stage_metrics.hpp"
#include "obs/trace_ring.hpp"
#include "stream/streaming_demod.hpp"
#include "stream/trace.hpp"

namespace saiyan::gateway {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t us_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// What a worker's warm demodulator slot was built for. Jobs with an
/// equal key reuse the slot (reset() keeps the warm buffers); anything
/// else rebuilds it. `generation` ties the key to a specific reload
/// epoch, so a config swap can never silently serve with stale knobs.
struct DemodKey {
  std::uint64_t generation = 0;
  bool from_trace = false;  ///< SaiyanConfig derived from a trace header
  core::Mode mode = core::Mode::kSuper;
  std::size_t payload_symbols = 0;
  lora::PhyParams phy;

  bool operator==(const DemodKey&) const = default;
};

struct LiveStream {
  StreamId id = 0;                 // the stream's job id
  std::uint32_t worker = 0;        // index of the worker that runs it
  std::deque<dsp::Signal> chunks;  // guarded by Impl::mu_
  std::uint64_t queued = 0;        // samples in `chunks` (Impl::mu_)
  bool closed = false;             // guarded by Impl::mu_
};

/// One unit of worker work: a trace replay of `path`, or a live stream
/// when `stream` is set.
struct Job {
  std::uint64_t id = 0;
  std::string path;
  std::shared_ptr<LiveStream> stream;
};

/// Everything a worker reports about itself. Only the worker writes
/// it; stats(), health() and the watchdog read whole copies through
/// one seqlock, so counters, ingest health and liveness in a copy
/// always belong to the same instant.
struct WorkerRecord {
  WorkerSnapshot counters;
  std::uint64_t jobs_done = 0;   ///< of counters.jobs, those that ended kDone
  stream::IngestStats ingest;    ///< finished jobs plus the running one so far
  std::uint64_t job = 0;         ///< running job id
  std::uint64_t started_ns = 0;  ///< running job's start; 0 = no job
  std::uint64_t beat_ns = 0;     ///< last heartbeat
  bool live = false;             ///< the running job is a live stream
  bool waiting = false;          ///< blocked on live input: not aged
  std::uint8_t degradation_level = 0;  ///< running live job's rung
  std::uint64_t degradation_transitions = 0;  ///< lifetime, this worker
  std::uint64_t lag_ms = 0;  ///< live backlog at the last dequeue
};

struct Subscriber {
  SubscriberId id = 0;
  FrameHandler fn;
  obs::StageMetrics* metrics = nullptr;  ///< owner: Gateway::Impl
  std::size_t cap = 256;
  std::mutex m;
  std::condition_variable cv;
  std::deque<FrameRecord> q;  // guarded by m
  bool stop = false;          // guarded by m
  bool in_flight = false;     // handler running (guarded by m)
  std::thread thr;
};

}  // namespace

struct Gateway::Impl {
  explicit Impl(const GatewayConfig& c)
      : base_cfg(c),
        cfg(std::make_shared<const GatewayConfig>(c)),
        link_telemetry_(c.link.capacity) {}

  // ---- configuration -------------------------------------------------
  const GatewayConfig base_cfg;  ///< fixed fields (workers, limits)
  std::shared_ptr<const GatewayConfig> cfg;  ///< current (guarded by mu_)
  /// Bumped per reload. Written under mu_; atomic so health() can
  /// report the generation without taking the job-queue lock.
  std::atomic<std::uint64_t> cfg_gen{0};
  std::atomic<std::uint64_t> config_reloads{0};

  // ---- scheduling ----------------------------------------------------
  struct Worker {
    std::uint32_t index = 0;
    std::deque<Job> jobs;  // guarded by Impl::mu_
    bool busy = false;     // guarded by Impl::mu_
    std::condition_variable cv;
    WorkerRecord rec;  // worker-private; readers see `published`
    obs::Seqlock<WorkerRecord> published;
    std::unique_ptr<stream::StreamingDemodulator> demod;
    DemodKey demod_key;
    std::thread thr;

    // Set by the watchdog (under Impl::mu_), cleared by the worker at
    // job start. `cancel` is the cooperative token StreamingDemodulator
    // polls per block — the one channel that can unstick a wedged push().
    std::atomic<bool> cancel{false};
    std::atomic<std::uint8_t> cancel_kind{0};  ///< 1=heartbeat, 2=deadline
    std::atomic<std::uint64_t> cancels{0};  ///< watchdog fires on this worker

    void publish() { published.publish(rec); }
    /// Enter or leave the live-input wait, with a fresh heartbeat.
    void set_waiting(bool on) {
      rec.waiting = on;
      rec.beat_ns = now_ns();
      publish();
    }
  };

  mutable std::mutex mu_;  // job queues, live streams, cfg pointer
  std::condition_variable idle_cv_;
  bool stop_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t next_job_ = 0;
  std::uint64_t rr_ = 0;
  std::unordered_map<StreamId, std::shared_ptr<LiveStream>> streams_;

  std::atomic<std::uint64_t> jobs_enqueued{0};
  std::atomic<std::uint64_t> streams_open{0};
  std::atomic<std::uint64_t> markers_expected{0};

  // ---- self-healing --------------------------------------------------
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mu_
  std::thread watchdog_thr_;
  std::atomic<std::uint64_t> watchdog_cancels_{0};
  std::atomic<std::uint64_t> deadline_cancels_{0};
  /// drain()s in progress (guarded by mu_). reload() is *rejected*
  /// while nonzero — the drain/reload race gets a defined order.
  int draining_ = 0;

  // ---- job outcomes --------------------------------------------------
  static constexpr std::size_t kMaxOutcomes = 4096;
  mutable std::mutex jobs_mu_;
  std::unordered_map<std::uint64_t, JobStatus> outcomes_;  // jobs_mu_
  std::deque<std::uint64_t> outcome_order_;                // jobs_mu_

  void record_outcome(std::uint64_t id, JobStatus st) {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    if (outcomes_.emplace(id, std::move(st)).second) {
      outcome_order_.push_back(id);
      while (outcome_order_.size() > kMaxOutcomes) {
        outcomes_.erase(outcome_order_.front());
        outcome_order_.pop_front();
      }
    }
  }

  // ---- delivery ------------------------------------------------------
  mutable std::mutex subs_mu_;
  std::vector<std::shared_ptr<Subscriber>> subs_;
  std::uint64_t next_sub_ = 1;
  std::atomic<std::size_t> n_subs{0};

  obs::LatencyHistogram latency_;
  /// Shared per-stage pipeline histograms (wait-free multi-writer):
  /// workers record scan/decode/SIC/gap timings via
  /// StreamConfig::stage_metrics, subscriber threads record delivery.
  obs::StageMetrics stage_metrics_;
  /// Link telescope: every worker's demodulator computes per-frame RF
  /// diagnostics into this shared registry (StreamConfig::link_telemetry)
  /// and emit_frames folds in the decoded identity. Fixed at create();
  /// snapshots never block the workers.
  obs::LinkTelemetry link_telemetry_;
  const Clock::time_point start_ = Clock::now();

  // ---- worker body ---------------------------------------------------

  void worker_main(Worker& w) {
    char tname[24];
    std::snprintf(tname, sizeof(tname), "worker%u", w.index);
    obs::set_thread_name(tname);
    for (;;) {
      Job job;
      std::shared_ptr<const GatewayConfig> job_cfg;
      std::uint64_t gen;
      {
        std::unique_lock<std::mutex> lk(mu_);
        w.cv.wait(lk, [&] { return stop_ || !w.jobs.empty(); });
        if (stop_) return;  // outstanding jobs are abandoned (see dtor)
        job = std::move(w.jobs.front());
        w.jobs.pop_front();
        w.busy = true;
        job_cfg = cfg;  // pinned: in-flight jobs survive reload untouched
        gen = cfg_gen;
      }
      const bool live = job.stream != nullptr;
      // Clear any cancel left over from the previous job before this
      // one runs. run_job() publishes the start once the demodulator
      // is built, so the watchdog never ages the build.
      w.cancel.store(false, std::memory_order_relaxed);
      w.cancel_kind.store(0, std::memory_order_relaxed);
      // Explicit B/E rather than a ScopedTimer: if the job wedges and a
      // trace is dumped mid-flight, the dangling 'B' shows the open job.
      obs::trace_begin(live ? "stream_job" : "trace_job");
      JobStatus st;
      if (live) {
        LiveSource src{*this, w, job.stream};
        st = run_job(w, src, job.id, *job_cfg, gen);
      } else if (auto opened =
                     stream::TraceReader::open(job.path, job_cfg->resync);
                 opened.ok()) {
        TraceSource src{std::move(opened).value()};
        st = run_job(w, src, job.id, *job_cfg, gen);
      } else {
        // Validated at enqueue time; the file changed underneath us.
        st.state = JobState::kFailed;
        st.message = opened.error().message;
        st.ingest = opened.error().ingest == stream::IngestError::kNone
                        ? stream::IngestError::kBadHeader
                        : opened.error().ingest;
        w.rec.ingest.count(st.ingest);
      }
      obs::trace_end(live ? "stream_job" : "trace_job");
      // A ladder lives only as long as its live job.
      w.rec.started_ns = 0;
      w.rec.degradation_level = 0;
      w.rec.lag_ms = 0;
      ++w.rec.counters.jobs;
      if (st.state == JobState::kDone) ++w.rec.jobs_done;
      w.publish();
      record_outcome(job.id, std::move(st));
      {
        std::lock_guard<std::mutex> lk(mu_);
        w.busy = false;
      }
      idle_cv_.notify_all();
    }
  }

  stream::StreamingDemodulator& ensure_demod(Worker& w, const DemodKey& key,
                                             stream::StreamConfig sc) {
    if (!w.demod || !(w.demod_key == key)) {
      w.demod = std::make_unique<stream::StreamingDemodulator>(sc);
      w.demod_key = key;
    } else {
      w.demod->reset();
    }
    w.demod->clear_packets();
    return *w.demod;
  }

  /// What a job source produced for the next turn of the job loop.
  enum class Fill {
    kChunk,      ///< the chunk buffer holds the next samples
    kEnd,        ///< input exhausted: flush and finish the job
    kCancelled,  ///< the watchdog fired while the source waited
    kStopped,    ///< gateway shutdown: abandon the job without a flush
  };

  /// Trace replay, fed to the demodulator by the stream layer's rule.
  struct TraceSource {
    static constexpr bool kFromTrace = true;
    stream::TraceReader reader;

    void configure(stream::StreamConfig& sc) const {
      stream::configure_for_trace(reader.meta(), sc);
    }
    Fill next(stream::StreamingDemodulator& demod, dsp::Signal& chunk) {
      return stream::next_trace_chunk(reader, demod, chunk) ? Fill::kChunk
                                                            : Fill::kEnd;
    }
    void fold(stream::IngestStats& into) const { into.merge(reader.stats()); }
    void close() {}
  };

  /// Live stream: chunks queued by Gateway::push, handed over under mu_.
  /// The job's own degradation ladder sheds work when the stream falls
  /// behind its producer.
  struct LiveSource {
    static constexpr bool kFromTrace = false;
    Impl& im;
    Worker& w;
    std::shared_ptr<LiveStream> live;
    DegradationLadder ladder{im.base_cfg.degradation};

    void configure(stream::StreamConfig&) const {}
    Fill next(stream::StreamingDemodulator& demod, dsp::Signal& chunk) {
      std::unique_lock<std::mutex> lk(im.mu_);
      const auto ready = [&] {
        return im.stop_ || w.cancel.load(std::memory_order_relaxed) ||
               !live->chunks.empty() || live->closed;
      };
      if (!ready()) {
        // The watchdog does not age a worker waiting for input, so the
        // wait needs no timeout. A cancel is stored and notified under
        // mu_: it lands before ready() or wakes the wait, never between.
        w.set_waiting(true);
        w.cv.wait(lk, ready);
        w.set_waiting(false);
      }
      if (im.stop_) return Fill::kStopped;
      if (w.cancel.load(std::memory_order_relaxed)) return Fill::kCancelled;
      if (live->chunks.empty()) return Fill::kEnd;
      chunk = std::move(live->chunks.front());
      live->chunks.pop_front();
      live->queued -= chunk.size();
      const double queued = static_cast<double>(live->queued);
      lk.unlock();
      // The ladder's signal is what is still queued behind this chunk,
      // in ms of sample time: how far the worker trails the producer.
      w.rec.lag_ms = static_cast<std::uint64_t>(
          queued * 1000.0 / demod.config().saiyan.phy.sample_rate_hz);
      if (ladder.update(w.rec.lag_ms)) {
        ++w.rec.degradation_transitions;
        obs::trace_instant("degradation_transition");
        if (im.base_cfg.on_event) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "degradation: worker %u level -> %u (%s), lag=%llums",
                        w.index, static_cast<unsigned>(ladder.level()),
                        to_string(ladder.level()),
                        static_cast<unsigned long long>(w.rec.lag_ms));
          im.emit_event(buf);
        }
      }
      w.rec.degradation_level = static_cast<std::uint8_t>(ladder.level());
      demod.set_degradation(w.rec.degradation_level);
      return Fill::kChunk;
    }
    void fold(stream::IngestStats&) const {}
    /// Retire the stream. After a cancel this tears down a still-open
    /// stream, so pushers get a typed error instead of feeding a job
    /// nobody will ever run again.
    void close() {
      bool was_open = false;
      {
        std::lock_guard<std::mutex> lk(im.mu_);
        was_open = !live->closed;
        live->closed = true;
        im.streams_.erase(live->id);
      }
      if (was_open) im.streams_open.fetch_sub(1, std::memory_order_relaxed);
    }
  };

  /// The one job loop, for either source: per chunk it pushes the
  /// chunk through the worker's warm demodulator, delivers frames,
  /// publishes the record (heartbeat, counters, ladder rung), runs the
  /// chunk hook, and honours the watchdog's cancel token. Only a live
  /// source moves the demodulator off level 0.
  template <typename Source>
  JobStatus run_job(Worker& w, Source& src, std::uint64_t job_id,
                    const GatewayConfig& gcfg, std::uint64_t gen) {
    stream::StreamConfig sc = gcfg.worker_stream_config();
    src.configure(sc);
    sc.cancel = &w.cancel;  // watchdog's lever into a wedged push()
    sc.stage_metrics = &stage_metrics_;
    sc.link_telemetry = gcfg.link.enabled ? &link_telemetry_ : nullptr;
    stream::StreamingDemodulator& demod = ensure_demod(
        w,
        DemodKey{gen, Source::kFromTrace, sc.saiyan.mode, sc.payload_symbols,
                 sc.saiyan.phy},
        sc);
    // The job's clocks start here: the watchdog ages it from zero.
    w.rec.job = job_id;
    w.rec.live = !Source::kFromTrace;
    w.rec.started_ns = w.rec.beat_ns = now_ns();
    w.publish();
    const std::uint64_t truncated_before = demod.truncated_packets();
    // The record's ingest is `base` (earlier jobs, this job's shed
    // frames and cancel) plus this job's source and demodulator so far.
    stream::IngestStats base = w.rec.ingest;
    const auto settle = [&] {
      w.rec.ingest = base;
      src.fold(w.rec.ingest);
      w.rec.ingest.merge(demod.ingest());
    };
    JobStatus st;
    st.state = JobState::kDone;
    dsp::Signal chunk;
    for (std::uint64_t chunk_index = 0;; ++chunk_index) {
      const Fill fill = src.next(demod, chunk);
      if (fill == Fill::kStopped) return st;
      if (fill == Fill::kEnd) break;
      if (fill == Fill::kChunk) {
        const Clock::time_point t0 = Clock::now();
        std::span<const dsp::Complex> rest(chunk);
        while (!rest.empty()) {
          const std::size_t take = std::min(gcfg.chunk_samples, rest.size());
          demod.push(rest.first(take));
          if (demod.cancelled()) break;
          rest = rest.subspan(take);
        }
        ++w.rec.counters.chunks;
        w.rec.counters.samples += chunk.size();
        emit_frames(w, demod, gcfg, job_id, t0, base);
        settle();
        w.rec.beat_ns = now_ns();
        w.publish();
        if (gcfg.chunk_hook) {
          gcfg.chunk_hook({w.index, job_id, chunk_index, &w.cancel});
        }
      }
      if (fill == Fill::kCancelled || demod.cancelled() ||
          w.cancel.load(std::memory_order_relaxed)) {
        // Abandon the job with what was counted so far. The worker
        // lives on; its demodulator is reset before the next job.
        src.close();
        ++base.jobs_cancelled;
        settle();
        st.state = JobState::kCancelled;
        st.message = w.cancel_kind.load(std::memory_order_relaxed) == 2
                         ? "job cancelled: deadline exceeded"
                         : "job cancelled: watchdog heartbeat timeout";
        return st;
      }
      if (gcfg.throttle_us != 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(gcfg.throttle_us));
      }
    }
    const Clock::time_point t_flush = Clock::now();
    demod.finish();
    emit_frames(w, demod, gcfg, job_id, t_flush, base);
    w.rec.counters.truncated += demod.truncated_packets() - truncated_before;
    settle();
    src.close();
    return st;
  }

  /// Deliver the demodulator's new frames; frames a full subscriber
  /// queue sheds are counted into `ingest`.
  void emit_frames(Worker& w, stream::StreamingDemodulator& demod,
                   const GatewayConfig& gcfg, std::uint64_t job_id,
                   Clock::time_point t_chunk, stream::IngestStats& ingest) {
    const std::span<const stream::DecodedPacket> pkts = demod.packets();
    if (pkts.empty()) return;
    const std::uint64_t lat = us_since(t_chunk);
    const std::uint32_t channel = demod.config().channel;
    const std::uint32_t alphabet =
        demod.config().saiyan.phy.symbol_alphabet();
    for (const stream::DecodedPacket& p : pkts) {
      latency_.record(lat);
      ++w.rec.counters.frames;
      w.rec.counters.symbols += p.n_symbols;
      FrameRecord fr;
      fr.job = job_id;
      fr.worker = w.index;
      fr.packet_start = p.packet_start;
      fr.payload_start = p.payload_start;
      fr.score = p.score;
      fr.collided = p.collided;
      fr.sic_assisted = p.sic_assisted;
      fr.latency_us = lat;
      const std::span<const std::uint32_t> syms = demod.symbols(p);
      fr.symbols.assign(syms.begin(), syms.end());
      fr.channel = channel;
      fr.sic_depth = p.sic_depth;
      if (gcfg.link.enabled) {
        // Link identity: the first payload symbol is the address/link
        // symbol by convention (sim captures encode it with
        // CaptureConfig::link_headers; unkeyed traffic just groups by
        // its first symbol, which is harmless).
        fr.tag_id = syms.empty() ? 0 : syms[0];
        fr.snr_db = p.snr_db;
        fr.cfo_hz = p.cfo_hz;
        obs::FrameDiag d;
        d.tag_id = fr.tag_id;
        d.channel = channel;
        d.snr_db = p.snr_db;
        d.cfo_hz = p.cfo_hz;
        d.timing_offset = p.timing_offset;
        d.corr_margin = p.corr_margin;
        d.noise_floor_dbm = p.noise_floor_dbm;
        d.sic_depth = p.sic_depth;
        d.sic_assisted = p.sic_assisted;
        d.collided = p.collided;
        d.latency_us = lat;
        d.packet_start = p.packet_start;
        d.seen_us = us_since(start_);
        if (gcfg.link.sequence_symbol && syms.size() > 1) {
          d.seq = syms[1];
          d.seq_modulus = alphabet;
          d.has_seq = true;
        }
        link_telemetry_.record_frame(d);
      }
      deliver(fr, ingest);
    }
    demod.clear_packets();
  }

  void deliver(const FrameRecord& fr, stream::IngestStats& ingest) {
    std::lock_guard<std::mutex> lk(subs_mu_);
    for (const std::shared_ptr<Subscriber>& sp : subs_) {
      Subscriber& s = *sp;
      std::lock_guard<std::mutex> sk(s.m);
      if (s.stop) continue;
      if (s.q.size() >= s.cap) {
        // Backpressure: the slow subscriber sheds its own frames; the
        // worker moves on immediately.
        ++ingest.frames_dropped_subscriber;
        continue;
      }
      s.q.push_back(fr);
      s.cv.notify_one();
    }
  }

  static void subscriber_main(Subscriber& s) {
    obs::set_thread_name("subscriber");
    std::unique_lock<std::mutex> lk(s.m);
    for (;;) {
      s.cv.wait(lk, [&] { return s.stop || !s.q.empty(); });
      if (s.q.empty()) break;  // stop requested and everything delivered
      FrameRecord fr = std::move(s.q.front());
      s.q.pop_front();
      s.in_flight = true;
      lk.unlock();
      try {
        obs::ScopedTimer t(
            "deliver", s.metrics != nullptr
                           ? &s.metrics->histogram(obs::Stage::kDeliver)
                           : nullptr);
        s.fn(fr);
      } catch (...) {
        // A subscriber's exception must not take down delivery; the
        // frame counts as delivered.
      }
      lk.lock();
      s.in_flight = false;
      s.cv.notify_all();  // drain() waits on empty-and-idle
    }
  }

  // ---- self-healing supervisor ---------------------------------------

  void emit_event(const char* msg) {
    if (base_cfg.on_event) base_cfg.on_event(std::string(msg));
  }

  /// Watchdog: each poll ages every busy worker's job start, and its
  /// heartbeat unless it waits for live input, against the configured
  /// bounds and fires the worker's cancel token at most once per job.
  void watchdog_main() {
    obs::set_thread_name("watchdog");
    const std::uint64_t hb_ns =
        base_cfg.watchdog.heartbeat_timeout_ms * 1'000'000ull;
    const std::uint64_t dl_ns =
        base_cfg.watchdog.job_deadline_ms * 1'000'000ull;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(watchdog_mu_);
        watchdog_cv_.wait_for(
            lk, std::chrono::milliseconds(base_cfg.watchdog.poll_ms),
            [&] { return watchdog_stop_; });
        if (watchdog_stop_) return;
      }
      const std::uint64_t now = now_ns();
      for (const auto& wp : workers_) {
        Worker& w = *wp;
        const WorkerRecord r = w.published.read();
        // Idle, or this job was already cancelled (the token stays set
        // until the worker arms the next job) — nothing to supervise.
        if (r.started_ns == 0 || w.cancel.load(std::memory_order_relaxed)) {
          continue;
        }
        std::uint8_t kind = 0;
        if (hb_ns != 0 && !r.waiting && now > r.beat_ns &&
            now - r.beat_ns >= hb_ns) {
          kind = 1;
        }
        // Deadlines apply to finite work (trace replays); a live
        // stream is open-ended by design and only heartbeat-supervised.
        if (kind == 0 && dl_ns != 0 && !r.live && now > r.started_ns &&
            now - r.started_ns >= dl_ns) {
          kind = 2;
        }
        if (kind == 0) continue;
        {
          std::lock_guard<std::mutex> lk(mu_);
          w.cancel_kind.store(kind, std::memory_order_relaxed);
          w.cancel.store(true, std::memory_order_release);
          w.cv.notify_all();
        }
        w.cancels.fetch_add(1, std::memory_order_relaxed);
        (kind == 1 ? watchdog_cancels_ : deadline_cancels_)
            .fetch_add(1, std::memory_order_relaxed);
        obs::trace_instant(kind == 1 ? "watchdog_cancel"
                                     : "deadline_cancel");
        if (base_cfg.on_event) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "watchdog: cancelling job %llu on worker %u (%s)",
                        static_cast<unsigned long long>(r.job),
                        w.index,
                        kind == 1 ? "heartbeat timeout" : "deadline exceeded");
          emit_event(buf);
        }
      }
    }
  }
};

saiyan::Result<std::unique_ptr<Gateway>> Gateway::create(
    const GatewayConfig& cfg) {
  if (auto v = cfg.validate(); !v.ok()) return v.error();
  return std::unique_ptr<Gateway>(new Gateway(cfg));
}

Gateway::Gateway(const GatewayConfig& cfg) : impl_(new Impl(cfg)) {
  impl_->workers_.reserve(cfg.workers);
  for (std::size_t i = 0; i < cfg.workers; ++i) {
    auto w = std::make_unique<Impl::Worker>();
    w->index = static_cast<std::uint32_t>(i);
    impl_->workers_.push_back(std::move(w));
  }
  for (std::size_t i = 0; i < cfg.workers; ++i) {
    Impl::Worker& w = *impl_->workers_[i];
    w.thr = std::thread([this, &w] { impl_->worker_main(w); });
  }
  if (cfg.watchdog.heartbeat_timeout_ms != 0 ||
      cfg.watchdog.job_deadline_ms != 0) {
    impl_->watchdog_thr_ = std::thread([this] { impl_->watchdog_main(); });
  }
}

Gateway::~Gateway() {
  {
    std::lock_guard<std::mutex> lk(impl_->watchdog_mu_);
    impl_->watchdog_stop_ = true;
  }
  impl_->watchdog_cv_.notify_all();
  if (impl_->watchdog_thr_.joinable()) impl_->watchdog_thr_.join();
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    impl_->stop_ = true;
  }
  for (auto& w : impl_->workers_) w->cv.notify_all();
  for (auto& w : impl_->workers_) {
    if (w->thr.joinable()) w->thr.join();
  }
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lk(impl_->subs_mu_);
    subs.swap(impl_->subs_);
  }
  for (const std::shared_ptr<Subscriber>& s : subs) {
    {
      std::lock_guard<std::mutex> lk(s->m);
      s->stop = true;
    }
    s->cv.notify_all();
    if (s->thr.joinable()) s->thr.join();
  }
}

saiyan::Result<std::uint64_t> Gateway::enqueue_trace(const std::string& path) {
  bool resync;
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    resync = impl_->cfg->resync;
  }
  // Validate the header here so a bad file fails the caller, not a
  // worker; the marker count feeds the ground-truth expectation.
  auto probe = stream::TraceReader::open(path, resync);
  if (!probe.ok()) return probe.error();
  impl_->markers_expected.fetch_add(probe.value().markers().size(),
                                    std::memory_order_relaxed);
  std::uint64_t job_id;
  Impl::Worker* target;
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    job_id = impl_->next_job_++;
    target = impl_->workers_[impl_->rr_++ % impl_->workers_.size()].get();
    target->jobs.push_back(Job{job_id, path, nullptr});
  }
  impl_->jobs_enqueued.fetch_add(1, std::memory_order_relaxed);
  target->cv.notify_all();
  return job_id;
}

StreamId Gateway::open_stream() {
  auto ls = std::make_shared<LiveStream>();
  Impl::Worker* target;
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    ls->id = impl_->next_job_++;
    impl_->streams_.emplace(ls->id, ls);
    target = impl_->workers_[impl_->rr_++ % impl_->workers_.size()].get();
    ls->worker = target->index;
    target->jobs.push_back(Job{ls->id, {}, ls});
  }
  impl_->jobs_enqueued.fetch_add(1, std::memory_order_relaxed);
  impl_->streams_open.fetch_add(1, std::memory_order_relaxed);
  target->cv.notify_all();
  return ls->id;
}

saiyan::Result<Unit> Gateway::push(StreamId stream,
                                   std::span<const dsp::Complex> chunk) {
  std::uint32_t owner = 0;
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    auto it = impl_->streams_.find(stream);
    if (it == impl_->streams_.end() || it->second->closed) {
      return fail("push: unknown or closed stream " + std::to_string(stream));
    }
    it->second->chunks.emplace_back(chunk.begin(), chunk.end());
    it->second->queued += chunk.size();
    owner = it->second->worker;
  }
  impl_->workers_[owner]->cv.notify_all();
  return Unit{};
}

saiyan::Result<Unit> Gateway::close_stream(StreamId stream) {
  std::uint32_t owner = 0;
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    auto it = impl_->streams_.find(stream);
    if (it == impl_->streams_.end() || it->second->closed) {
      return fail("close_stream: unknown or closed stream " +
                  std::to_string(stream));
    }
    it->second->closed = true;
    owner = it->second->worker;
  }
  impl_->streams_open.fetch_sub(1, std::memory_order_relaxed);
  impl_->workers_[owner]->cv.notify_all();
  return Unit{};
}

SubscriberId Gateway::subscribe(FrameHandler handler) {
  auto s = std::make_shared<Subscriber>();
  s->fn = std::move(handler);
  s->cap = impl_->base_cfg.limits.subscriber_queue;
  s->metrics = &impl_->stage_metrics_;
  {
    std::lock_guard<std::mutex> lk(impl_->subs_mu_);
    s->id = impl_->next_sub_++;
    impl_->subs_.push_back(s);
  }
  impl_->n_subs.fetch_add(1, std::memory_order_relaxed);
  s->thr = std::thread([s] { Impl::subscriber_main(*s); });
  return s->id;
}

void Gateway::unsubscribe(SubscriberId id) {
  std::shared_ptr<Subscriber> victim;
  {
    std::lock_guard<std::mutex> lk(impl_->subs_mu_);
    for (auto it = impl_->subs_.begin(); it != impl_->subs_.end(); ++it) {
      if ((*it)->id == id) {
        victim = *it;
        impl_->subs_.erase(it);
        break;
      }
    }
  }
  if (!victim) return;
  impl_->n_subs.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(victim->m);
    victim->stop = true;  // queued frames are still delivered first
  }
  victim->cv.notify_all();
  if (victim->thr.joinable()) victim->thr.join();
}

saiyan::Result<Unit> Gateway::reload(const GatewayConfig& cfg) {
  if (auto v = cfg.validate(); !v.ok()) return v.error();
  if (cfg.workers != impl_->base_cfg.workers) {
    return fail("reload: workers is fixed at create()");
  }
  if (cfg.limits.subscriber_queue != impl_->base_cfg.limits.subscriber_queue) {
    return fail("reload: limits.subscriber_queue is fixed at create()");
  }
  if (!(cfg.watchdog == impl_->base_cfg.watchdog)) {
    return fail("reload: watchdog config is fixed at create()");
  }
  if (!(cfg.degradation == impl_->base_cfg.degradation)) {
    return fail("reload: degradation config is fixed at create()");
  }
  if (!(cfg.link == impl_->base_cfg.link)) {
    // The registry is sized once and shared by every worker; resizing
    // or re-keying it mid-serve would tear live seqlock slots.
    return fail("reload: link telemetry config is fixed at create()");
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    if (impl_->draining_ > 0) {
      // A drain() is waiting for the worker pool to empty; swapping the
      // config underneath it is an undefined mix of old and new jobs.
      // Reject with a typed error — the caller retries after the drain.
      return fail("reload: rejected while drain() is in progress");
    }
    impl_->cfg = std::make_shared<const GatewayConfig>(cfg);
    ++impl_->cfg_gen;
  }
  impl_->config_reloads.fetch_add(1, std::memory_order_relaxed);
  return Unit{};
}

saiyan::Result<Unit> Gateway::drain() {
  {
    std::unique_lock<std::mutex> lk(impl_->mu_);
    for (const auto& [id, ls] : impl_->streams_) {
      if (!ls->closed) {
        return fail("drain: live stream " + std::to_string(id) +
                    " still open (close_stream it first)");
      }
    }
    ++impl_->draining_;  // reload() is rejected until we finish
    impl_->idle_cv_.wait(lk, [&] {
      for (const auto& w : impl_->workers_) {
        if (w->busy || !w->jobs.empty()) return false;
      }
      return true;
    });
  }
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lk(impl_->subs_mu_);
    subs = impl_->subs_;
  }
  for (const std::shared_ptr<Subscriber>& s : subs) {
    std::unique_lock<std::mutex> sk(s->m);
    s->cv.wait(sk, [&] { return s->q.empty() && !s->in_flight; });
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu_);
    --impl_->draining_;
  }
  return Unit{};
}

saiyan::Result<JobStatus> Gateway::job_status(std::uint64_t job) const {
  {
    std::lock_guard<std::mutex> lk(impl_->jobs_mu_);
    auto it = impl_->outcomes_.find(job);
    if (it != impl_->outcomes_.end()) return it->second;
  }
  std::lock_guard<std::mutex> lk(impl_->mu_);
  if (job >= impl_->next_job_) {
    return fail("job_status: unknown job " + std::to_string(job));
  }
  return JobStatus{};  // issued but not completed: pending
}

GatewayStats Gateway::stats() const {
  const Impl& im = *impl_;
  GatewayStats s;
  s.uptime_s = std::chrono::duration<double>(Clock::now() - im.start_).count();
  s.workers = im.workers_.size();
  s.subscribers = im.n_subs.load(std::memory_order_relaxed);
  s.jobs_enqueued = im.jobs_enqueued.load(std::memory_order_relaxed);
  s.streams_open = im.streams_open.load(std::memory_order_relaxed);
  s.config_reloads = im.config_reloads.load(std::memory_order_relaxed);
  s.markers_expected = im.markers_expected.load(std::memory_order_relaxed);
  s.watchdog_cancels = im.watchdog_cancels_.load(std::memory_order_relaxed);
  s.deadline_cancels = im.deadline_cancels_.load(std::memory_order_relaxed);
  s.per_worker.reserve(im.workers_.size());
  for (const auto& wp : im.workers_) {
    const WorkerRecord r = wp->published.read();
    const WorkerSnapshot& ws = r.counters;
    s.jobs_done += r.jobs_done;
    s.jobs_failed += ws.jobs - r.jobs_done;
    s.frames_decoded += ws.frames;
    s.symbols_decoded += ws.symbols;
    s.samples_consumed += ws.samples;
    s.chunks_ingested += ws.chunks;
    s.truncated_frames += ws.truncated;
    s.ingest.merge(r.ingest);
    s.degradation_level =
        std::max<std::uint32_t>(s.degradation_level, r.degradation_level);
    s.degradation_transitions += r.degradation_transitions;
    s.per_worker.push_back(ws);
  }
  if (s.uptime_s > 0.0) {
    s.frames_per_sec = static_cast<double>(s.frames_decoded) / s.uptime_s;
    s.msamples_per_sec =
        static_cast<double>(s.samples_consumed) / s.uptime_s / 1e6;
  }
  // Quantiles interpolate inside a log2 bucket; clamp to the true max
  // so p99 never reads above the worst sample actually seen.
  s.latency_max_us = im.latency_.max_us();
  s.latency_p50_us = std::min(im.latency_.quantile_us(0.50), s.latency_max_us);
  s.latency_p99_us = std::min(im.latency_.quantile_us(0.99), s.latency_max_us);
  im.latency_.snapshot_counts(s.latency_buckets);
  s.latency_count =
      obs::LatencyHistogram::total_from_counts(s.latency_buckets);
  s.latency_sum_us = im.latency_.sum_us();
  s.latency_saturated =
      obs::LatencyHistogram::saturated_from_counts(s.latency_buckets);
  s.stages.reserve(obs::kStageCount);
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    const obs::LatencyHistogram& h = im.stage_metrics_.histogram(stage);
    StageLatencySnapshot st;
    st.stage = obs::to_string(stage);
    h.snapshot_counts(st.buckets);
    st.count = obs::LatencyHistogram::total_from_counts(st.buckets);
    st.sum_us = h.sum_us();
    st.max_us = h.max_us();
    st.p50_us = std::min(
        obs::LatencyHistogram::quantile_from_counts(st.buckets, 0.50),
        st.max_us);
    st.p99_us = std::min(
        obs::LatencyHistogram::quantile_from_counts(st.buckets, 0.99),
        st.max_us);
    st.saturated = obs::LatencyHistogram::saturated_from_counts(st.buckets);
    s.stages.push_back(st);
  }
  s.trace_events_dropped = obs::events_dropped_total();
  s.links = im.link_telemetry_.snapshot();
  return s;
}

obs::LinkRegistrySnapshot Gateway::links() const {
  return impl_->link_telemetry_.snapshot();
}

GatewayHealth Gateway::health() const {
  const Impl& im = *impl_;
  GatewayHealth h;
  h.uptime_s = std::chrono::duration<double>(Clock::now() - im.start_).count();
  h.config_generation = im.cfg_gen.load(std::memory_order_relaxed);
  h.watchdog_cancels = im.watchdog_cancels_.load(std::memory_order_relaxed);
  h.deadline_cancels = im.deadline_cancels_.load(std::memory_order_relaxed);
  const std::uint64_t now = now_ns();
  h.workers.reserve(im.workers_.size());
  for (const auto& wp : im.workers_) {
    const WorkerRecord r = wp->published.read();
    WorkerHealth wh;
    wh.busy = r.started_ns != 0;  // a job is running
    if (wh.busy) {
      wh.job = r.job;
      wh.job_age_ms =
          now > r.started_ns ? (now - r.started_ns) / 1'000'000 : 0;
      // Like the watchdog, health does not age a worker waiting for input.
      wh.heartbeat_age_ms =
          !r.waiting && now > r.beat_ns ? (now - r.beat_ns) / 1'000'000 : 0;
    }
    wh.cancels = wp->cancels.load(std::memory_order_relaxed);
    wh.jobs_completed = r.counters.jobs;
    wh.degradation_level = r.degradation_level;
    wh.lag_ms = r.lag_ms;
    h.jobs_cancelled += r.ingest.jobs_cancelled;
    h.degradation_level = std::max(h.degradation_level, wh.degradation_level);
    h.degradation_transitions += r.degradation_transitions;
    h.workers.push_back(wh);
  }
  h.degradation_name =
      to_string(static_cast<DegradationLevel>(h.degradation_level));
  return h;
}

const GatewayConfig& Gateway::config() const { return impl_->base_cfg; }

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

}  // namespace saiyan::gateway
