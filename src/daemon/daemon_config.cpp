#include "daemon/daemon_config.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

namespace saiyan::daemon {

namespace {

// What the rows write into. PHY rows set `phy`/`mode`, which rebuild
// stream.saiyan through SaiyanConfig::make once every setting is in.
struct Target {
  DaemonOptions opt;
  lora::PhyParams phy = opt.gateway.stream.saiyan.phy;
  core::Mode mode = opt.gateway.stream.saiyan.mode;
};

// A row's field; its type is the value kind. Unsigned integers (the
// three types size_t, uint32_t and uint64_t map to on any ABI, plus
// the PHY's int fields) take a strict decimal within the field's
// range, bool takes 0 or 1, double takes a number, a string or the
// trace list takes the text, and Mode takes a mode name.
using Field = std::variant<unsigned*, unsigned long*, unsigned long long*,
                           int*, bool*, double*, std::string*,
                           std::vector<std::string>*, core::Mode*>;

struct Row {
  std::string_view key;
  Field field;
  bool phy = false;
};

std::array<Row, 25> key_table(Target& t) {
  gateway::GatewayConfig& g = t.opt.gateway;
  return {{
      {"socket", &t.opt.socket_path},
      {"trace", &t.opt.traces},
      {"workers", &g.workers},
      {"chunk_samples", &g.chunk_samples},
      {"throttle_us", &g.throttle_us},
      {"resync", &g.resync},
      {"subscriber_queue", &g.limits.subscriber_queue},
      {"watchdog_poll_ms", &g.watchdog.poll_ms},
      {"watchdog_heartbeat_timeout_ms", &g.watchdog.heartbeat_timeout_ms},
      {"watchdog_job_deadline_ms", &g.watchdog.job_deadline_ms},
      {"degradation_lag_high_ms", &g.degradation.lag_high_ms},
      {"degradation_lag_low_ms", &g.degradation.lag_low_ms},
      {"degradation_escalate_after", &g.degradation.escalate_after},
      {"degradation_deescalate_after", &g.degradation.deescalate_after},
      {"sic_depth", &g.stream.sic.depth},
      {"min_score", &g.stream.min_score},
      {"payload_symbols", &g.stream.payload_symbols},
      {"seed", &g.stream.seed},
      {"seed_by_offset", &g.stream.seed_by_offset},
      {"sf", &t.phy.spreading_factor, true},
      {"bandwidth_hz", &t.phy.bandwidth_hz, true},
      {"sample_rate_hz", &t.phy.sample_rate_hz, true},
      {"bits_per_symbol", &t.phy.bits_per_symbol, true},
      {"preamble_symbols", &t.phy.preamble_symbols, true},
      {"mode", &t.mode, true},
  }};
}

// Parse `value` into `field`; returns the complaint, or "" when it took.
std::string assign(const Field& field, std::string_view value) {
  return std::visit(
      [value](auto* f) -> std::string {
        using T = std::remove_pointer_t<decltype(f)>;
        std::uint64_t u = 0;
        if constexpr (std::is_same_v<T, bool>) {
          if (!parse_unsigned(value, u) || u > 1) return "expected 0 or 1";
          *f = u != 0;
        } else if constexpr (std::is_integral_v<T>) {
          constexpr auto kMax = std::numeric_limits<T>::max();
          if (!parse_unsigned(value, u) || u > std::uint64_t{kMax}) {
            return "expected an unsigned integer <= " + std::to_string(kMax);
          }
          *f = static_cast<T>(u);
        } else if constexpr (std::is_same_v<T, double>) {
          const char* end = value.data() + value.size();
          const auto [ptr, ec] = std::from_chars(value.data(), end, *f);
          if (ec != std::errc{} || ptr != end) return "not a number";
        } else if constexpr (std::is_same_v<T, std::string>) {
          *f = value;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          f->emplace_back(value);
        } else {
          for (const core::Mode m : {core::Mode::kVanilla,
                                     core::Mode::kFrequencyShifting,
                                     core::Mode::kSuper}) {
            if (value == core::mode_name(m)) {
              *f = m;
              return {};
            }
          }
          return "expected vanilla, freq-shifting, or super";
        }
        return {};
      },
      field);
}

}  // namespace

bool parse_unsigned(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

saiyan::Result<DaemonOptions> load_daemon_config(
    const std::string& path, const std::vector<Setting>& overrides) {
  std::vector<Setting> settings;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) return fail("cannot open config file: " + path);
    std::string raw;
    std::size_t lineno = 0;
    while (std::getline(in, raw)) {
      ++lineno;
      std::istringstream ls(raw.substr(0, raw.find('#')));
      const std::string origin = path + ":" + std::to_string(lineno);
      std::string key, value, extra;
      if (!(ls >> key)) continue;  // blank / comment-only line
      if (!(ls >> value)) {
        return fail(origin + ": key '" + key + "' has no value");
      }
      if (ls >> extra) {
        return fail(origin + ": trailing token '" + extra + "'");
      }
      settings.push_back({origin, key, value});
    }
  }
  settings.insert(settings.end(), overrides.begin(), overrides.end());

  Target t;
  const auto rows = key_table(t);
  const std::string* phy_origin = nullptr;
  for (const Setting& s : settings) {
    const auto row = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
      return r.key == s.key;
    });
    if (row == rows.end()) {
      return fail(s.origin + ": unknown key '" + s.key + "'");
    }
    if (const std::string why = assign(row->field, s.value); !why.empty()) {
      return fail(s.origin + ": " + s.key + ": " + why);
    }
    if (row->phy) phy_origin = &s.origin;
  }

  if (phy_origin != nullptr) {
    try {
      t.opt.gateway.stream.saiyan = core::SaiyanConfig::make(t.phy, t.mode);
    } catch (const std::exception& err) {
      return fail(*phy_origin + ": " + err.what());
    }
  }
  if (auto v = t.opt.gateway.validate(); !v.ok()) {
    return fail((path.empty() ? std::string("flags") : path) + ": " +
                v.message());
  }
  return std::move(t.opt);
}

}  // namespace saiyan::daemon
