// The gateway's metric inventory: one row per metric, rendered by both
// GatewayStats::to_text() and to_prometheus(). A row's help string is
// the metric's one definition; docs/OBSERVABILITY.md mirrors it. The
// other `key value` payloads (links, health) are rendered here too.
#include "gateway/gateway_metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/prometheus.hpp"

namespace saiyan::gateway {

namespace {

/// One `key value` line: integers exact, floats with three decimals.
void append_stat(std::string& out, std::string_view key, std::uint64_t v) {
  out.append(key).append(" ").append(std::to_string(v)) += '\n';
}

void append_stat(std::string& out, std::string_view key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out.append(key).append(" ").append(buf) += '\n';
}

using Buckets = std::array<std::uint64_t, obs::LatencyHistogram::kBuckets>;

/// One rendered number. A histogram's value is its sum, with the
/// bucket counts alongside. An `unset` value (the noise floor before
/// its first idle span) is left out of the text; the exposition shows
/// its sentinel.
struct Value {
  std::uint64_t u = 0;
  double f = 0.0;
  bool is_float = false;
  bool unset = false;
  const Buckets* buckets = nullptr;
};

Value u64(std::uint64_t v) { return {.u = v}; }
Value f64(double v) { return {.f = v, .is_float = true}; }
Value hist(std::uint64_t sum, const Buckets& b) {
  return {.u = sum, .buckets = &b};
}

/// Getter for a plain numeric member.
template <auto M>
Value field(const auto& part) {
  const auto v = part.*M;
  if constexpr (std::is_floating_point_v<decltype(v)>) {
    return f64(v);
  } else {
    return u64(v);
  }
}

constexpr const char* kCounter = "counter";
constexpr const char* kGauge = "gauge";
constexpr const char* kHistogram = "histogram";

/// One metric of a snapshot part: the GatewayStats itself, one stage
/// or one worker. `key` is the stats key (for stages and workers, the
/// suffix after `stage.<name>.` / `worker.<N>.`), `prom` the
/// Prometheus family; nullptr where one payload lacks the metric.
template <typename Part>
struct Row {
  const char* key;
  const char* prom;
  const char* type;
  const char* help;
  Value (*get)(const Part&);
};

using S = GatewayStats;
const Row<S> kScalars[] = {
    {"uptime_s", "saiyan_uptime_seconds", kGauge,
     "Seconds since gateway start", field<&S::uptime_s>},
    {"workers", "saiyan_workers", kGauge, "Demodulation worker threads",
     field<&S::workers>},
    {"subscribers", "saiyan_subscribers", kGauge,
     "Registered frame subscribers", field<&S::subscribers>},
    {"jobs_enqueued", "saiyan_jobs_enqueued_total", kCounter, "Jobs accepted",
     field<&S::jobs_enqueued>},
    {"jobs_done", "saiyan_jobs_done_total", kCounter, "Jobs completed",
     field<&S::jobs_done>},
    {"jobs_failed", "saiyan_jobs_failed_total", kCounter,
     "Jobs failed or cancelled", field<&S::jobs_failed>},
    {"streams_open", "saiyan_streams_open", kGauge,
     "Live push-streams not yet closed", field<&S::streams_open>},
    {"config_reloads", "saiyan_config_reloads_total", kCounter,
     "Config reloads applied", field<&S::config_reloads>},
    {"frames_decoded", "saiyan_frames_decoded_total", kCounter,
     "Frames decoded", field<&S::frames_decoded>},
    {"symbols_decoded", "saiyan_symbols_decoded_total", kCounter,
     "Payload symbols decoded", field<&S::symbols_decoded>},
    {"truncated_frames", "saiyan_truncated_frames_total", kCounter,
     "Frames cut off by capture end", field<&S::truncated_frames>},
    {"samples_consumed", "saiyan_samples_consumed_total", kCounter,
     "IQ samples consumed", field<&S::samples_consumed>},
    {"chunks_ingested", "saiyan_chunks_ingested_total", kCounter,
     "Capture chunks ingested", field<&S::chunks_ingested>},
    {"markers_expected", "saiyan_markers_expected_total", kCounter,
     "Ground-truth frames promised by enqueued trace markers",
     field<&S::markers_expected>},
    {"frames_per_sec", nullptr, kGauge, "Frames decoded per second of uptime",
     field<&S::frames_per_sec>},
    {"msamples_per_sec", nullptr, kGauge,
     "Msamples consumed per second of uptime", field<&S::msamples_per_sec>},
    {"latency_p50_us", nullptr, kGauge,
     "Chunk-to-frame latency median, clamped to the max",
     field<&S::latency_p50_us>},
    {"latency_p99_us", nullptr, kGauge,
     "Chunk-to-frame latency 99th percentile, clamped to the max",
     field<&S::latency_p99_us>},
    {"latency_max_us", nullptr, kGauge, "Worst chunk-to-frame latency",
     field<&S::latency_max_us>},
    {"latency_count", nullptr, kCounter, "Chunk-to-frame latency samples",
     field<&S::latency_count>},
    {"latency_sum_us", "saiyan_frame_latency_microseconds", kHistogram,
     "Chunk-arrival to frame-decode latency",
     [](const S& s) { return hist(s.latency_sum_us, s.latency_buckets); }},
    {"latency_saturated", "saiyan_frame_latency_saturated_total", kCounter,
     "Chunk-to-frame samples in the open-ended histogram bucket "
     "(nonzero means quantiles clamp low)",
     field<&S::latency_saturated>},
    {"links_tracked", "saiyan_links_tracked", kGauge,
     "Distinct tag/channel links in the registry",
     [](const S& s) { return u64(s.links.links.size()); }},
    {"link_frames_total", nullptr, kCounter,
     "Frames folded into the link registry",
     [](const S& s) { return u64(s.links.frames_total); }},
    {"link_evictions", "saiyan_link_evictions_total", kCounter,
     "Links LRU-evicted from the bounded registry",
     [](const S& s) { return u64(s.links.evictions); }},
    {nullptr, "saiyan_noise_floor_valid", kGauge,
     "1 once an idle-air noise estimate exists",
     [](const S& s) { return u64(s.links.noise_floor_valid ? 1 : 0); }},
    {"noise_floor_dbm", "saiyan_noise_floor_db", kGauge,
     "Rolling idle-air noise floor, dBm (-200 until valid)",
     [](const S& s) {
       if (s.links.noise_floor_valid) return f64(s.links.noise_floor_dbm);
       Value v = f64(obs::LinkTelemetry::kNoFloorDbm);
       v.unset = true;
       return v;
     }},
    {"trace_events_dropped", "saiyan_trace_events_dropped_total", kCounter,
     "Flight-recorder events overwritten before a dump",
     field<&S::trace_events_dropped>},
    {"watchdog_cancels", "saiyan_watchdog_cancels_total", kCounter,
     "Jobs cancelled for a missed heartbeat", field<&S::watchdog_cancels>},
    {"deadline_cancels", "saiyan_deadline_cancels_total", kCounter,
     "Jobs cancelled for a blown deadline", field<&S::deadline_cancels>},
    {"degradation_level", "saiyan_degradation_level", kGauge,
     "Highest degradation ladder rung over workers (0=healthy)",
     field<&S::degradation_level>},
    {"degradation_transitions", "saiyan_degradation_transitions_total",
     kCounter, "Degradation ladder level changes",
     field<&S::degradation_transitions>},
    {"ingest.total_errors", nullptr, kCounter, "Rejected input, all classes",
     [](const S& s) { return u64(s.ingest.total_errors()); }},
};

using St = StageLatencySnapshot;
const Row<St> kStageFields[] = {
    {"count", nullptr, kCounter, "Stage samples recorded", field<&St::count>},
    {"sum_us", "saiyan_stage_latency_microseconds", kHistogram,
     "Per-stage pipeline latency",
     [](const St& st) { return hist(st.sum_us, st.buckets); }},
    {"p50_us", nullptr, kGauge, "Stage latency median, clamped to the max",
     field<&St::p50_us>},
    {"p99_us", nullptr, kGauge,
     "Stage latency 99th percentile, clamped to the max", field<&St::p99_us>},
    {"max_us", nullptr, kGauge, "Worst stage latency", field<&St::max_us>},
    {"saturated", "saiyan_stage_latency_saturated_total", kCounter,
     "Per-stage samples in the open-ended histogram bucket",
     field<&St::saturated>},
};

using W = WorkerSnapshot;
const Row<W> kWorkerFields[] = {
    {"frames", "saiyan_worker_frames_total", kCounter,
     "Frames decoded per worker", field<&W::frames>},
    {"symbols", nullptr, kCounter, "Payload symbols decoded per worker",
     field<&W::symbols>},
    {"samples", nullptr, kCounter, "IQ samples consumed per worker",
     field<&W::samples>},
    {"chunks", nullptr, kCounter, "Capture chunks ingested per worker",
     field<&W::chunks>},
    {"jobs", "saiyan_worker_jobs_total", kCounter, "Jobs completed per worker",
     field<&W::jobs>},
    {"truncated", nullptr, kCounter, "Frames cut off by capture end per worker",
     field<&W::truncated>},
};

template <typename Part>
void text_rows(std::string& out, std::span<const Row<Part>> rows,
               const Part& part, const std::string& prefix) {
  for (const Row<Part>& r : rows) {
    if (r.key == nullptr) continue;
    const Value v = r.get(part);
    if (v.unset) continue;
    v.is_float ? append_stat(out, prefix + r.key, v.f)
               : append_stat(out, prefix + r.key, v.u);
  }
}

/// One family per row, one sample per part, labeled `labels[i]`.
template <typename Part>
void prom_rows(obs::PromWriter& w, std::span<const Row<Part>> rows,
               std::span<const Part> parts,
               const std::vector<std::string>& labels) {
  for (const Row<Part>& r : rows) {
    if (r.prom == nullptr) continue;
    w.family(r.prom, r.help, r.type);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const Value v = r.get(parts[i]);
      if (v.buckets != nullptr) {
        w.histogram(r.prom, labels[i], *v.buckets, v.u);
      } else if (v.is_float) {
        w.sample(r.prom, labels[i], v.f);
      } else {
        w.sample(r.prom, labels[i], v.u);
      }
    }
  }
}

std::string label(const char* name, std::string_view value) {
  std::string out(name);
  out += "=\"";
  out += value;
  out += '"';
  return out;
}

std::vector<const obs::LinkSnapshot*> sorted_links(
    const obs::LinkRegistrySnapshot& snap, const LinkQuery& q) {
  std::vector<const obs::LinkSnapshot*> order;
  order.reserve(snap.links.size());
  for (const obs::LinkSnapshot& l : snap.links) order.push_back(&l);
  // The sort key first, then tag id and channel.
  const auto before = [&q](const obs::LinkSnapshot* a,
                           const obs::LinkSnapshot* b) {
    switch (q.sort) {
      case LinkQuery::Sort::kFrames:
        if (a->frames != b->frames) return a->frames > b->frames;
        break;
      case LinkQuery::Sort::kSnr:
        if (a->ewma_snr_db != b->ewma_snr_db) {
          return a->ewma_snr_db < b->ewma_snr_db;
        }
        break;
      case LinkQuery::Sort::kLastSeen:
        if (a->last_seen_us != b->last_seen_us) {
          return a->last_seen_us > b->last_seen_us;
        }
        break;
      case LinkQuery::Sort::kTag:
        break;
    }
    return a->tag_id != b->tag_id ? a->tag_id < b->tag_id
                                  : a->channel < b->channel;
  };
  std::stable_sort(order.begin(), order.end(), before);
  if (q.top != 0 && order.size() > q.top) order.resize(q.top);
  return order;
}

}  // namespace

std::string GatewayStats::to_text() const {
  std::string out;
  out.reserve(2048 + 128 * per_worker.size());
  text_rows<S>(out, kScalars, *this, "");
  for (const stream::IngestCounter& c : stream::kIngestCounters) {
    append_stat(out, std::string("ingest.") + c.name, ingest.*c.field);
  }
  for (const StageLatencySnapshot& st : stages) {
    text_rows<St>(out, kStageFields, st,
                  std::string("stage.") + st.stage + ".");
  }
  for (std::size_t i = 0; i < per_worker.size(); ++i) {
    text_rows<W>(out, kWorkerFields, per_worker[i],
                 "worker." + std::to_string(i) + ".");
  }
  return out;
}

std::string to_prometheus(const GatewayStats& s) {
  obs::PromWriter w;
  prom_rows<S>(w, kScalars, {&s, 1}, {""});

  // Ingest health: event counters as one labeled family, rejection
  // classes as another (label values are the enum's to_string names).
  const char* kEvents = "saiyan_ingest_events_total";
  w.family(kEvents, "Ingest recovery and shedding events by kind", kCounter);
  for (const stream::IngestCounter& c : stream::kIngestCounters) {
    w.sample(kEvents, label("kind", c.name), s.ingest.*c.field);
  }
  const char* kErrors = "saiyan_ingest_errors_total";
  w.family(kErrors, "Rejected input by classification", kCounter);
  for (std::size_t i = 1;
       i < static_cast<std::size_t>(stream::IngestError::kCount); ++i) {
    const auto err = static_cast<stream::IngestError>(i);
    w.sample(kErrors, label("class", stream::to_string(err)),
             s.ingest.error_count(err));
  }

  std::vector<std::string> labels;
  for (const StageLatencySnapshot& st : s.stages) {
    labels.push_back(label("stage", st.stage));
  }
  prom_rows<St>(w, kStageFields, s.stages, labels);
  labels.clear();
  for (std::size_t i = 0; i < s.per_worker.size(); ++i) {
    labels.push_back(label("worker", std::to_string(i)));
  }
  prom_rows<W>(w, kWorkerFields, s.per_worker, labels);

  // Link telescope. Per-link series are capped at the link_top_k
  // busiest links (scrape cardinality bound); everything past the cap
  // folds into tag="other" so frame totals still sum correctly.
  const std::vector<const obs::LinkSnapshot*> busiest =
      sorted_links(s.links, {});
  const std::size_t top = std::min(s.link_top_k, busiest.size());
  labels.clear();
  for (std::size_t i = 0; i < top; ++i) {
    labels.push_back(label("tag", std::to_string(busiest[i]->tag_id)) + "," +
                     label("channel", std::to_string(busiest[i]->channel)));
  }
  const char* kLinkFrames = "saiyan_link_frames_total";
  w.family(kLinkFrames,
           "Frames decoded per link (top-K by frames; rest in "
           "tag=\"other\")",
           kCounter);
  std::uint64_t other = 0;
  for (std::size_t i = 0; i < busiest.size(); ++i) {
    if (i < top) w.sample(kLinkFrames, labels[i], busiest[i]->frames);
    if (i >= top) other += busiest[i]->frames;
  }
  // Always emitted so the family is never sample-less and sums stay
  // complete even when every link fits in the top-K budget.
  w.sample(kLinkFrames, "tag=\"other\",channel=\"all\"", other);
  const char* kLinkSnr = "saiyan_link_snr_db";
  w.family(kLinkSnr, "EWMA frame SNR per link (top-K by frames)", kGauge);
  for (std::size_t i = 0; i < top; ++i) {
    w.sample(kLinkSnr, labels[i], busiest[i]->ewma_snr_db);
  }

  return w.str();
}

std::string links_to_text(const obs::LinkRegistrySnapshot& snap,
                          const LinkQuery& q) {
  const std::vector<const obs::LinkSnapshot*> order = sorted_links(snap, q);
  std::string out;
  out.reserve(256 + 320 * order.size());
  append_stat(out, "links_tracked",
              static_cast<std::uint64_t>(snap.links.size()));
  append_stat(out, "links_listed",
              static_cast<std::uint64_t>(order.size()));
  append_stat(out, "link_capacity",
              static_cast<std::uint64_t>(snap.capacity));
  append_stat(out, "link_evictions", snap.evictions);
  append_stat(out, "frames_total", snap.frames_total);
  if (snap.noise_floor_valid) {
    append_stat(out, "noise_floor_dbm", snap.noise_floor_dbm);
  }
  for (const obs::LinkSnapshot* l : order) {
    char key[96];
    const unsigned long t = static_cast<unsigned long>(l->tag_id);
    const unsigned long c = static_cast<unsigned long>(l->channel);
    const auto field = [&](const char* name) {
      std::snprintf(key, sizeof(key), "link.%lu.%lu.%s", t, c, name);
      return key;
    };
    append_stat(out, field("frames"), l->frames);
    append_stat(out, field("collided"), l->collided_frames);
    append_stat(out, field("sic_rescued"), l->sic_rescued);
    append_stat(out, field("lost"), l->lost_frames);
    append_stat(out, field("snr_db"), l->ewma_snr_db);
    append_stat(out, field("cfo_hz"), l->ewma_cfo_hz);
    append_stat(out, field("timing"), l->ewma_timing);
    append_stat(out, field("margin"), l->ewma_margin);
    append_stat(out, field("latency_us"), l->ewma_latency_us);
    append_stat(out, field("last_snr_db"), l->last_snr_db);
    append_stat(out, field("last_seen_us"), l->last_seen_us);
    append_stat(out, field("last_packet_start"), l->last_packet_start);
  }
  return out;
}

std::string GatewayHealth::to_text() const {
  std::string out;
  out.reserve(512 + 192 * workers.size());
  append_stat(out, "uptime_s", uptime_s);
  append_stat(out, "config_generation", config_generation);
  append_stat(out, "degradation_level",
              static_cast<std::uint64_t>(degradation_level));
  out += "degradation_name ";
  out += degradation_name;
  out += '\n';
  append_stat(out, "degradation_transitions", degradation_transitions);
  append_stat(out, "watchdog_cancels", watchdog_cancels);
  append_stat(out, "deadline_cancels", deadline_cancels);
  append_stat(out, "jobs_cancelled", jobs_cancelled);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerHealth& w = workers[i];
    const std::string p = "worker." + std::to_string(i) + ".";
    append_stat(out, p + "busy", static_cast<std::uint64_t>(w.busy ? 1 : 0));
    append_stat(out, p + "job", w.job);
    append_stat(out, p + "job_age_ms", w.job_age_ms);
    append_stat(out, p + "heartbeat_age_ms", w.heartbeat_age_ms);
    append_stat(out, p + "cancels", w.cancels);
    append_stat(out, p + "degradation_level",
                static_cast<std::uint64_t>(w.degradation_level));
    append_stat(out, p + "lag_ms", w.lag_ms);
    append_stat(out, p + "jobs_completed", w.jobs_completed);
  }
  return out;
}

}  // namespace saiyan::gateway
