#include "net/qcc.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "common/check.h"

namespace etsn::net {

namespace {

std::string escapeName(const std::string& s) {
  // Names may not contain whitespace in the line-oriented format.
  std::string out;
  for (const char c : s) {
    out += (c == ' ' || c == '\t' || c == '\n') ? '_' : c;
  }
  return out;
}

/// Key=value tokens of one line (after the leading keyword).
std::map<std::string, std::string> parseFields(std::istringstream& line,
                                               int lineNo) {
  std::map<std::string, std::string> fields;
  std::string token;
  while (line >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError("qcc line " + std::to_string(lineNo) +
                        ": expected key=value, got '" + token + "'");
    }
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return fields;
}

/// The whole of `text` as an integer (0x.. accepted, for gates).
std::int64_t parseInt(const std::string& text, const std::string& key,
                      int lineNo) {
  std::size_t used = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &used, 0);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    throw ConfigError("qcc line " + std::to_string(lineNo) + ": field '" +
                      key + "' is not a number: '" + text + "'");
  }
  return value;
}

std::int64_t fieldInt(const std::map<std::string, std::string>& fields,
                      const std::string& key, int lineNo) {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw ConfigError("qcc line " + std::to_string(lineNo) +
                      ": missing field '" + key + "'");
  }
  return parseInt(it->second, key, lineNo);
}

std::string fieldStr(const std::map<std::string, std::string>& fields,
                     const std::string& key, int lineNo) {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw ConfigError("qcc line " + std::to_string(lineNo) +
                      ": missing field '" + key + "'");
  }
  return it->second;
}

}  // namespace

std::string serializeQcc(const QccConfig& config) {
  std::ostringstream os;
  os << "# E-TSN Qcc configuration (streams + gate control lists)\n";
  os << "etsn-config cycle=" << config.cycle << "\n";
  for (const StreamSpec& s : config.streams) {
    os << "stream name=" << escapeName(s.name) << " src=" << s.src
       << " dst=" << s.dst << " period=" << s.period
       << " max-latency=" << s.maxLatency << " payload=" << s.payloadBytes
       << " priority=" << s.priority << " type="
       << (s.type == TrafficClass::TimeTriggered ? "time-triggered"
                                                 : "event-triggered")
       << " share=" << (s.share ? 1 : 0) << " release=" << s.releaseOffset;
    if (!s.path.empty()) {
      os << " path=";
      for (std::size_t i = 0; i < s.path.size(); ++i) {
        os << (i ? "," : "") << s.path[i];
      }
    }
    os << "\n";
  }
  for (const QccConfig::PortGcl& p : config.gcls) {
    if (!p.gcl.installed()) continue;
    os << "gcl link=" << p.link << " cycle=" << p.gcl.cycle() << "\n";
    char buf[32];
    for (const GclEntry& e : p.gcl.entries()) {
      std::snprintf(buf, sizeof buf, "0x%02x", e.gateMask);
      os << "  entry duration=" << e.duration << " gates=" << buf << "\n";
    }
  }
  return os.str();
}

QccConfig parseQcc(const std::string& text) {
  QccConfig config;
  std::istringstream in(text);
  std::string rawLine;
  int lineNo = 0;
  bool sawHeader = false;

  // GCL assembly state.
  LinkId gclLink = kNoLink;
  TimeNs gclCycle = 0;
  std::vector<GclEntry> gclEntries;
  auto flushGcl = [&] {
    if (gclLink == kNoLink) return;
    if (gclEntries.empty()) {
      throw ConfigError("qcc: gcl for link " + std::to_string(gclLink) +
                        " has no entries");
    }
    TimeNs sum = 0;  // stays within [0, gclCycle], so it cannot overflow
    for (const GclEntry& e : gclEntries) {
      if (e.duration > gclCycle - sum) {
        throw ConfigError("qcc: gcl entries for link " +
                          std::to_string(gclLink) + " exceed the cycle");
      }
      sum += e.duration;
    }
    if (sum != gclCycle) {
      throw ConfigError("qcc: gcl entries for link " +
                        std::to_string(gclLink) +
                        " do not sum to the cycle");
    }
    config.gcls.push_back({gclLink, Gcl(gclCycle, gclEntries)});
    gclLink = kNoLink;
    gclEntries.clear();
  };

  while (std::getline(in, rawLine)) {
    ++lineNo;
    std::istringstream line(rawLine);
    std::string keyword;
    if (!(line >> keyword) || keyword[0] == '#') continue;

    if (keyword == "etsn-config") {
      const auto fields = parseFields(line, lineNo);
      config.cycle = fieldInt(fields, "cycle", lineNo);
      sawHeader = true;
    } else if (keyword == "stream") {
      const auto fields = parseFields(line, lineNo);
      StreamSpec s;
      s.name = fieldStr(fields, "name", lineNo);
      s.src = static_cast<NodeId>(fieldInt(fields, "src", lineNo));
      s.dst = static_cast<NodeId>(fieldInt(fields, "dst", lineNo));
      s.period = fieldInt(fields, "period", lineNo);
      s.maxLatency = fieldInt(fields, "max-latency", lineNo);
      s.payloadBytes = static_cast<int>(fieldInt(fields, "payload", lineNo));
      s.priority = static_cast<int>(fieldInt(fields, "priority", lineNo));
      const std::string type = fieldStr(fields, "type", lineNo);
      if (type == "time-triggered") {
        s.type = TrafficClass::TimeTriggered;
      } else if (type == "event-triggered") {
        s.type = TrafficClass::EventTriggered;
      } else {
        throw ConfigError("qcc line " + std::to_string(lineNo) +
                          ": unknown stream type '" + type + "'");
      }
      s.share = fieldInt(fields, "share", lineNo) != 0;
      s.releaseOffset = fieldInt(fields, "release", lineNo);
      if (fields.count("path") != 0) {
        std::istringstream ps(fields.at("path"));
        std::string item;
        while (std::getline(ps, item, ',')) {
          s.path.push_back(
              static_cast<LinkId>(parseInt(item, "path", lineNo)));
        }
      }
      config.streams.push_back(std::move(s));
    } else if (keyword == "gcl") {
      flushGcl();
      const auto fields = parseFields(line, lineNo);
      gclLink = static_cast<LinkId>(fieldInt(fields, "link", lineNo));
      gclCycle = fieldInt(fields, "cycle", lineNo);
      if (gclCycle <= 0) {
        throw ConfigError("qcc line " + std::to_string(lineNo) +
                          ": gcl cycle must be positive");
      }
    } else if (keyword == "entry") {
      if (gclLink == kNoLink) {
        throw ConfigError("qcc line " + std::to_string(lineNo) +
                          ": 'entry' outside a gcl block");
      }
      const auto fields = parseFields(line, lineNo);
      GclEntry e;
      e.duration = fieldInt(fields, "duration", lineNo);
      if (e.duration <= 0) {
        throw ConfigError("qcc line " + std::to_string(lineNo) +
                          ": entry duration must be positive");
      }
      const std::int64_t gates = fieldInt(fields, "gates", lineNo);
      if (gates < 0 || gates > 0xFF) {
        throw ConfigError("qcc line " + std::to_string(lineNo) +
                          ": gates must fit the eight queues (0x00-0xff)");
      }
      e.gateMask = static_cast<std::uint8_t>(gates);
      gclEntries.push_back(e);
    } else {
      throw ConfigError("qcc line " + std::to_string(lineNo) +
                        ": unknown keyword '" + keyword + "'");
    }
  }
  flushGcl();
  if (!sawHeader) {
    throw ConfigError("qcc: missing 'etsn-config' header");
  }
  return config;
}

}  // namespace etsn::net
