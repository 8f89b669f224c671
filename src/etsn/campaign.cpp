#include "etsn/campaign.h"

#include <chrono>
#include <cstdio>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace etsn {

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void appendEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
}

void appendKv(std::string& out, const char* key, const std::string& value,
              bool comma = true) {
  out += '"';
  out += key;
  out += "\":\"";
  appendEscaped(out, value);
  out += '"';
  if (comma) out += ',';
}

void appendKv(std::string& out, const char* key, double value,
              bool comma = true) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"%s\":%.17g", key, value);
  out += buf;
  if (comma) out += ',';
}

void appendKv(std::string& out, const char* key, std::int64_t value,
              bool comma = true) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"%s\":%lld", key,
                static_cast<long long>(value));
  out += buf;
  if (comma) out += ',';
}

void appendSummary(std::string& out, const stats::Summary& s) {
  out += '{';
  appendKv(out, "count", s.count);
  appendKv(out, "mean_ns", s.meanNs);
  appendKv(out, "min_ns", s.minNs);
  appendKv(out, "max_ns", s.maxNs);
  appendKv(out, "stddev_ns", s.stddevNs, /*comma=*/false);
  out += '}';
}

void appendStream(std::string& out, const StreamResult& s,
                  bool includeSamples) {
  out += '{';
  appendKv(out, "name", s.name);
  appendKv(out, "class",
           std::string(s.type == net::TrafficClass::TimeTriggered ? "tct"
                                                                  : "ect"));
  appendKv(out, "delivered", s.messagesDelivered);
  appendKv(out, "deadline_misses", s.deadlineMisses);
  appendKv(out, "deadline_ns", s.deadline);
  appendKv(out, "sent", s.messagesSent);
  appendKv(out, "lost", s.messagesLost);
  appendKv(out, "unterminated", s.messagesUnterminated);
  appendKv(out, "dropped_loss", s.framesDroppedLoss);
  appendKv(out, "dropped_outage", s.framesDroppedOutage);
  appendKv(out, "dropped_policer", s.framesDroppedPolicer);
  appendKv(out, "dropped_overflow", s.framesDroppedOverflow);
  appendKv(out, "policer_violations", s.policerViolations);
  appendKv(out, "blocked_intervals", s.blockedIntervals);
  appendKv(out, "frames_replicated", s.framesReplicated);
  appendKv(out, "duplicates_eliminated", s.duplicatesEliminated);
  appendKv(out, "recovered_by_redundancy", s.recoveredByRedundancy);
  appendKv(out, "frer_latent_alarms", s.frerLatentAlarms);
  appendKv(out, "delivery_ratio", s.deliveryRatio());
  out += "\"latency\":";
  appendSummary(out, s.latency);
  if (includeSamples) {
    out += ",\"samples_ns\":[";
    for (std::size_t i = 0; i < s.latencies.size(); ++i) {
      if (i > 0) out += ',';
      char buf[24];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(s.latencies[i]));
      out += buf;
    }
    out += ']';
  }
  out += '}';
}

}  // namespace

stats::Summary CampaignResult::aggregate(const std::string& streamName) const {
  stats::Summary agg;
  for (const CampaignTaskResult& t : tasks) {
    if (!t.result.feasible) continue;
    for (const StreamResult& s : t.result.streams) {
      if (s.name == streamName) agg.merge(s.latency);
    }
  }
  return agg;
}

std::vector<TimeNs> CampaignResult::samples(
    const std::string& streamName) const {
  std::vector<TimeNs> out;
  for (const CampaignTaskResult& t : tasks) {
    if (!t.result.feasible) continue;
    for (const StreamResult& s : t.result.streams) {
      if (s.name == streamName) {
        out.insert(out.end(), s.latencies.begin(), s.latencies.end());
      }
    }
  }
  return out;
}

long long CampaignResult::totalDeadlineMisses(net::TrafficClass type) const {
  long long misses = 0;
  for (const CampaignTaskResult& t : tasks) {
    for (const StreamResult& s : t.result.streams) {
      if (s.type == type) misses += s.deadlineMisses;
    }
  }
  return misses;
}

int CampaignResult::feasibleCount() const {
  int n = 0;
  for (const CampaignTaskResult& t : tasks) n += t.result.feasible ? 1 : 0;
  return n;
}

CampaignResult runCampaign(const Campaign& campaign) {
  for (const CampaignTask& t : campaign.tasks) {
    ETSN_CHECK_MSG(t.make != nullptr, "campaign task '" << t.label
                                                        << "' has no factory");
  }
  CampaignResult out;
  out.name = campaign.name;
  out.seed = campaign.seed;
  out.tasks.resize(campaign.tasks.size());

  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool(campaign.threads);
  out.threads = pool.numThreads();
  pool.parallelFor(campaign.tasks.size(), [&](std::size_t i) {
    const auto taskStart = std::chrono::steady_clock::now();
    CampaignTaskResult& slot = out.tasks[i];
    slot.label = campaign.tasks[i].label;
    slot.index = i;
    slot.taskSeed = Rng::deriveSeed(campaign.seed, i);
    slot.result = runExperiment(campaign.tasks[i].make(slot.taskSeed));
    slot.wallSeconds = secondsSince(taskStart);
  });
  out.wallSeconds = secondsSince(start);
  return out;
}

std::string toJson(const CampaignResult& r, bool includeSamples,
                   bool includeTiming) {
  std::string out = "{";
  appendKv(out, "campaign", r.name);
  appendKv(out, "seed", static_cast<std::int64_t>(r.seed));
  appendKv(out, "tasks", static_cast<std::int64_t>(r.tasks.size()));
  appendKv(out, "feasible", static_cast<std::int64_t>(r.feasibleCount()));
  if (includeTiming) {
    appendKv(out, "threads", static_cast<std::int64_t>(r.threads));
    appendKv(out, "wall_seconds", r.wallSeconds);
  }
  out += "\"results\":[";
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    const CampaignTaskResult& t = r.tasks[i];
    if (i > 0) out += ',';
    out += '{';
    appendKv(out, "label", t.label);
    appendKv(out, "index", static_cast<std::int64_t>(t.index));
    appendKv(out, "task_seed", static_cast<std::int64_t>(t.taskSeed));
    appendKv(out, "feasible",
             static_cast<std::int64_t>(t.result.feasible ? 1 : 0));
    appendKv(out, "engine", t.result.solve.engine);
    appendKv(out, "degraded",
             static_cast<std::int64_t>(t.result.solve.degraded ? 1 : 0));
    if (t.result.solve.engine == "admission") {
      // Fleet sweeps over admission-engine cells report churn counters.
      const sched::AdmissionCounters& a = t.result.solve.admission;
      appendKv(out, "admission_admits", a.admits);
      appendKv(out, "admission_rejects", a.rejects);
    }
    if (t.result.gptp.enabled) {
      // Cells that ran the faithful gPTP stack report the emergent sync
      // quality, including the named warning counter for schedules whose
      // configured syncErrorMargin the measured offsets broke.
      const GptpResult& g = t.result.gptp;
      appendKv(out, "gptp_grandmaster",
               static_cast<std::int64_t>(g.grandmaster));
      appendKv(out, "gptp_max_offset_ns", g.maxOffsetError);
      appendKv(out, "gptp_max_holdover_ns", g.maxHoldoverExcursion);
      appendKv(out, "gptp_max_reelection_ns", g.maxReelectionTimeNs);
      appendKv(out, "gptp_reelections",
               static_cast<std::int64_t>(g.reelections));
      appendKv(out, "gptp_frames_sent", g.framesSent);
      appendKv(out, "gptp_frames_delivered", g.framesDelivered);
      appendKv(out, "gptp_frames_dropped", g.framesDropped);
      appendKv(out, "gptp_frames_in_flight", g.framesInFlight);
      appendKv(out, "sync_margin_violations",
               static_cast<std::int64_t>(g.syncMarginViolations));
    }
    if (includeTiming) {
      appendKv(out, "wall_seconds", t.wallSeconds);
      appendKv(out, "solve_seconds", t.result.solve.solveSeconds);
    }
    out += "\"streams\":[";
    for (std::size_t s = 0; s < t.result.streams.size(); ++s) {
      if (s > 0) out += ',';
      appendStream(out, t.result.streams[s], includeSamples);
    }
    out += "]}";
  }
  out += "],\"aggregates\":{";
  // Distinct stream names in first-seen task order.
  std::vector<std::string> names;
  for (const CampaignTaskResult& t : r.tasks) {
    for (const StreamResult& s : t.result.streams) {
      bool seen = false;
      for (const std::string& n : names) seen = seen || n == s.name;
      if (!seen) names.push_back(s.name);
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    appendEscaped(out, names[i]);
    out += "\":";
    appendSummary(out, r.aggregate(names[i]));
  }
  out += "}}";
  return out;
}

}  // namespace etsn
