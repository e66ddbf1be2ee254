// saiyand config: flat `key value` settings into a GatewayConfig.
//
//   # saiyand.conf
//   socket /tmp/saiyand.sock
//   workers 4
//   chunk_samples 16384
//   throttle_us 0
//   resync 1
//   subscriber_queue 256
//   sic_depth 1
//   min_score 0.6
//   payload_symbols 16
//   degradation_lag_high_ms 200
//   degradation_lag_low_ms 50
//   watchdog_job_deadline_ms 60000
//   sf 7
//   bandwidth_hz 500e3
//   sample_rate_hz 4e6
//   bits_per_symbol 2
//   mode super
//   trace /var/lib/saiyan/demo.trace   # repeatable
//
// Each key is one row of the key table in daemon_config.cpp: its name
// and the field it sets, whose type gives the value kind (unsigned,
// 0/1, number or text). Config lines and saiyand's serve flags are
// both settings for that table; the flags apply after the file, at
// start and on every reload.
//
// '#' starts a comment; blank lines are skipped. An unknown key or a
// bad value fails with its origin ("path:LINE: ..." or the flag), and
// the assembled GatewayConfig goes through GatewayConfig::validate()
// so a bad value is reported by its dotted field path before the
// daemon starts. PHY keys (sf/bandwidth_hz/sample_rate_hz/
// bits_per_symbol/preamble_symbols/mode) rebuild stream.saiyan via
// SaiyanConfig::make so every derived rate stays consistent.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.hpp"
#include "gateway/gateway_config.hpp"

namespace saiyan::daemon {

struct DaemonOptions {
  std::string socket_path = "/tmp/saiyand.sock";
  std::vector<std::string> traces;  ///< enqueued at startup
  gateway::GatewayConfig gateway;
};

/// One `key value` setting. `origin` prefixes its errors: "path:LINE"
/// for a config line, the flag for a command-line override.
struct Setting {
  std::string origin;
  std::string key;
  std::string value;
};

/// Parse the config file at `path` ("" = none), apply `overrides`
/// after it, then validate. Errors carry the setting's origin for
/// syntax and value problems and the dotted field path for range
/// problems.
saiyan::Result<DaemonOptions> load_daemon_config(
    const std::string& path, const std::vector<Setting>& overrides = {});

/// The strict parser behind every unsigned key: decimal digits only
/// (no sign, no blanks) that fit in 64 bits. `out` is meaningful only
/// when it returns true.
bool parse_unsigned(std::string_view text, std::uint64_t& out);

}  // namespace saiyan::daemon
