// gwbench — the gateway serving benchmark.
//
//   gwbench --workload <trace_dense|live_sparse|trace_collide_mt>
//           --seed <n> --seconds <s> --trace <0|1> --cache <dir> [--smoke]
//
// --trace 0 serves the workload through gateway::Gateway for <s>
// seconds and prints the end-to-end metrics. --trace 1 splits <s> into
// an untraced serve, a traced serve (per-call timers, worker-busy
// sampler) and a layer drive, and prints the per-layer budget. Every
// run checks each delivered frame against the ground-truth markers and
// an offline StreamingDemodulator pass, and exits 1 with "correct":
// false on any mismatch, failed operation, or (traced) a stage coverage
// below 95 %. The last line of standard output is the JSON result.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "gwbench.hpp"

using namespace gwbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string cache = ".bench_build/gwbench-inputs";
  std::string setup_probe;  ///< internal: time one cold start_server
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--cache") a.cache = value();
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--setup-probe") a.setup_probe = value();
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// setup_s samples: each is a fresh process (so process-wide template
/// caches start cold, as in a daemon) timing Gateway::create plus one
/// warm-up job per worker. Appends `reps` samples.
void cold_setup_s(const Args& a, const std::string& warmup, int reps,
                  std::vector<double>& samples) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::fflush(stdout);
  for (int i = 0; i < reps; ++i) {
    const std::string cmd = "'" + self + "' --workload " + a.workload +
                            " --setup-probe '" + warmup + "'";
    FILE* p = popen(cmd.c_str(), "r");
    if (p == nullptr) throw std::runtime_error("popen failed");
    double s = -1.0;
    const int got = std::fscanf(p, "%lf", &s);
    if (pclose(p) != 0 || got != 1 || s < 0.0) {
      throw std::runtime_error("setup probe failed");
    }
    samples.push_back(s);
  }
}

int setup_probe(const Args& a) {
  const WorkloadSpec spec = workload_spec(a.workload);
  InputSet set;
  set.warmup_path = a.setup_probe;
  const Clock::time_point t0 = Clock::now();
  Server s = start_server(spec, set);
  std::printf("%.9f\n", seconds_between(t0, Clock::now()));
  return 0;
}

void line(const char* name, double value, const char* unit) {
  std::printf("%-28s %14.6f %s\n", name, value, unit);
}

int run(const Args& a) {
  const WorkloadSpec spec = workload_spec(a.workload);
  std::printf("# gwbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.smoke ? " smoke" : "");
  std::printf("# host %s\n", fingerprint().c_str());
  std::fflush(stdout);

  const InputSet set = prepare_inputs(spec, a.seed, a.smoke, a.cache);
  std::uint64_t total_samples = 0, total_markers = 0;
  for (const Input& in : set.inputs) {
    total_samples += in.samples;
    total_markers += in.markers.size();
  }
  std::printf("# inputs %zu x %.2f Msamples, %llu markers, gen_s=%.3f%s, "
              "reference_s=%.3f\n",
              set.inputs.size(),
              static_cast<double>(total_samples) / 1e6 /
                  static_cast<double>(set.inputs.size()),
              static_cast<unsigned long long>(total_markers), set.gen_s,
              set.cached ? " (cached)" : "", set.reference_s);

  Server server = start_server(spec, set);
  Oracle oracle;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;

  auto frames_ok_ratio = [](const ServeResult& r) {
    return r.markers == 0 ? 0.0
                          : static_cast<double>(r.frames_ok) /
                                static_cast<double>(r.markers);
  };

  if (!a.trace) {
    // Half the setup samples are taken before serving and half after, so
    // one burst of host slowness cannot move all of a run's samples.
    std::vector<double> setup_samples;
    const int setup_reps = a.smoke ? 1 : 8;
    cold_setup_s(a, set.warmup_path, setup_reps, setup_samples);
    const ServeResult r = serve(server, spec, set, a.seconds, false, oracle);
    cold_setup_s(a, set.warmup_path, setup_reps, setup_samples);
    const double setup_s = median(setup_samples);
    attempted = r.attempted;
    failed = r.failed;
    // One tail window is one pass over the seed's inputs on every worker:
    // on live_sparse it holds one frame end per chunk-phase stratum, so
    // every window of a quiet run has the same latency distribution.
    std::size_t cycle_frames = 0;
    for (const Input& in : set.inputs) cycle_frames += in.reference.size();
    cycle_frames *= spec.workers;
    const Tail t = tail(r.latency_ms);
    metrics = {
        {"rtf_per_worker", r.rtf_per_worker(), "x"},
        {"frame_latency_p50_ms", median(r.latency_ms), "ms"},
        {"frame_latency_tail_ms", windowed_p90(r.latency_ms, cycle_frames), "ms"},
        {"backlog_mean_chunks", r.backlog_mean_chunks, "count"},
        {"frames_ok_ratio", frames_ok_ratio(r), "ratio"},
        {"setup_s", setup_s, "s"},
        {"rss_growth_mb", r.rss_peak_mb - r.rss_start_mb, "MB"},
    };
    for (const Metric& m : metrics) line(m.name.c_str(), m.value, m.unit.c_str());
    std::printf("# tail = median p90 of %zu windows of %zu frames (%zu frames); "
                "whole-run p%.2f %.3f ms; window %.3f s, %.3f Msamples\n",
                cycle_frames == 0 ? 0 : r.latency_ms.size() / cycle_frames,
                cycle_frames, r.latency_ms.size(), t.percentile, t.value,
                r.window_s, static_cast<double>(r.samples) / 1e6);
    line("ops_failed_ratio",
         static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
         "ratio");
    line("generator_late_max_ms", r.generator_late_max_ms, "ms");
    line("backlog_max_chunks", static_cast<double>(r.backlog_max_chunks), "count");
    line("rss_peak_mb", r.rss_peak_mb, "MB");
  } else {
    const double part = a.seconds / 3.0;
    const ServeResult base = serve(server, spec, set, part, false, oracle);
    const ServeResult traced = serve(server, spec, set, part, true, oracle);
    const LayerBudget lb = drive_layers(spec, set, part, oracle);
    attempted = base.attempted + traced.attempted;
    failed = base.failed + traced.failed;

    // trace_overhead > 1: the traced serve did worse than the untraced one.
    const double overhead =
        spec.live ? median(traced.latency_ms) / median(base.latency_ms)
                  : base.rtf_per_worker() / traced.rtf_per_worker();
    const double msamples = static_cast<double>(lb.samples) / 1e6;
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const double demod_stage_s = lb.scan_s + lb.decode_s + lb.cancel_s + lb.rescan_s;
    const Tail push_tail = tail(traced.call_us);
    metrics = {
        {"trace.busy_s", lb.trace_s, "s"},
        {"trace.mb_per_s", ratio(static_cast<double>(lb.trace_bytes) / 1e6, lb.trace_s), "MB/s"},
        {"trace.bytes_per_sample",
         ratio(static_cast<double>(lb.trace_bytes), static_cast<double>(lb.trace_samples)),
         "B/sample"},
        {"scan.busy_s", lb.scan_s, "s"},
        {"scan.us_per_msample", ratio(1e6 * lb.scan_s, msamples), "us/Msample"},
        {"scan.blocks", static_cast<double>(lb.scan_blocks), "count"},
        {"decode.busy_s", lb.decode_s, "s"},
        {"decode.ms_per_frame", ratio(1e3 * lb.decode_s, static_cast<double>(lb.decodes)), "ms"},
        {"decode.frames", static_cast<double>(lb.decodes), "count"},
        {"sic_cancel.busy_s", lb.cancel_s, "s"},
        {"sic_cancel.count", static_cast<double>(lb.cancels), "count"},
        {"sic_rescan.busy_s", lb.rescan_s, "s"},
        {"sic_rescan.count", static_cast<double>(lb.rescans), "count"},
        {"sic.useful_ratio",
         ratio(static_cast<double>(lb.collisions_resolved), static_cast<double>(lb.frames_cancelled)),
         "ratio"},
        {"sic.rescan_hit_ratio",
         ratio(static_cast<double>(lb.collisions_resolved), static_cast<double>(lb.rescans)),
         "ratio"},
        {"demod.busy_s", lb.demod_s, "s"},
        {"demod.unattributed_s", lb.demod_s - demod_stage_s, "s"},
        {"stage_coverage", lb.coverage(), "ratio"},
        {"gateway.push_us_p50", median(traced.call_us), "us"},
        {"gateway.push_us_tail", push_tail.value, "us"},
        {"deliver.busy_s", traced.deliver_busy_s, "s"},
        {"deliver.count", static_cast<double>(traced.deliver_count), "count"},
        {"worker.busy_share", median(traced.busy_share), "ratio"},
        {"trace_overhead", overhead, "ratio"},
        {"backlog_max_chunks",
         static_cast<double>(std::max(base.backlog_max_chunks, traced.backlog_max_chunks)),
         "count"},
        {"generator.late_max_ms",
         std::max(base.generator_late_max_ms, traced.generator_late_max_ms), "ms"},
    };
    for (const Metric& m : metrics) line(m.name.c_str(), m.value, m.unit.c_str());
    std::printf("# layer drive %.3f s wall on %zu thread(s); gateway worker busy share",
                lb.wall_s, spec.workers);
    for (const double s : traced.busy_share) std::printf(" %.3f", s);
    std::printf("\n# gateway call tail = p%.2f of %zu calls\n", push_tail.percentile,
                traced.call_us.size());
    if (lb.coverage() < 0.95) {
      std::fprintf(stderr,
                   "gwbench: COVERAGE CHECK FAILED: trace+scan+decode+sic stages "
                   "account for %.1f %% of the traced loop's busy time (< 95 %%)\n",
                   100.0 * lb.coverage());
      correct = false;
    }
  }
  if (!oracle.ok) {
    std::fprintf(stderr, "gwbench: ORACLE MISMATCH: %s\n", oracle.message.c_str());
    correct = false;
  }
  if (failed != 0) {
    std::fprintf(stderr, "gwbench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    correct = false;
  }
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    return a.setup_probe.empty() ? run(a) : setup_probe(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gwbench: %s\n", e.what());
    return 2;
  }
}
