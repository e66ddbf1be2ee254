#include "gateway/gateway_stats.hpp"

#include <charconv>

namespace saiyan::gateway {

saiyan::Result<LinkQuery> parse_link_query(std::string_view text) {
  LinkQuery q;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == '\n')) {
      ++i;
    }
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t' &&
           text[j] != '\n') {
      ++j;
    }
    if (j == i) break;
    const std::string_view tok = text.substr(i, j - i);
    i = j;
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos) {
      return saiyan::Error{"links: expected key=value, got '" +
                           std::string(tok) + "'"};
    }
    const std::string_view key = tok.substr(0, eq);
    const std::string_view val = tok.substr(eq + 1);
    if (key == "top") {
      std::size_t n = 0;
      const auto [ptr, ec] =
          std::from_chars(val.data(), val.data() + val.size(), n);
      if (ec != std::errc{} || ptr != val.data() + val.size()) {
        return saiyan::Error{"links: bad top '" + std::string(val) + "'"};
      }
      q.top = n;
    } else if (key == "sort") {
      if (val == "frames") {
        q.sort = LinkQuery::Sort::kFrames;
      } else if (val == "snr") {
        q.sort = LinkQuery::Sort::kSnr;
      } else if (val == "last_seen") {
        q.sort = LinkQuery::Sort::kLastSeen;
      } else if (val == "tag") {
        q.sort = LinkQuery::Sort::kTag;
      } else {
        return saiyan::Error{"links: unknown sort '" + std::string(val) +
                             "' (frames|snr|last_seen|tag)"};
      }
    } else {
      return saiyan::Error{"links: unknown option '" + std::string(key) +
                           "' (top, sort)"};
    }
  }
  return q;
}

}  // namespace saiyan::gateway
