// Statistics helpers, the host/build fingerprint and the result line.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "dsp/simd.hpp"
#include "gwbench.hpp"
#include "obs/trace_ring.hpp"

namespace gwbench {

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  // v[n - 11] has exactly ten samples above it.
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double windowed_p90(const std::vector<double>& v, std::size_t window) {
  auto p90 = [](std::vector<double> w) {
    std::sort(w.begin(), w.end());
    return w[(9 * w.size() + 9) / 10 - 1];  // rank ceil(0.9 n)
  };
  if (v.empty()) return 0.0;
  if (window == 0 || v.size() < window) return p90(v);
  std::vector<double> per_window;
  for (std::size_t i = 0; i + window <= v.size(); i += window) {
    per_window.push_back(p90({v.begin() + i, v.begin() + i + window}));
  }
  return median(per_window);
}

std::string fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  const bool avx2 =
      saiyan::dsp::simd::active_isa() == saiyan::dsp::simd::Isa::kAvx2;
  std::ostringstream out;
  out << "nproc=" << usable << " cpu=\"" << cpu << "\" build=" << GWBENCH_BUILD_TYPE
      << " tracing=" << SAIYAN_TRACING << " simd=" << (avx2 ? "avx2" : "scalar");
  return out.str();
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace gwbench
