// In-memory span recorder for the traced run.
//
// The benchmark records a span around each call it makes into a layer:
// name, start, end, the enclosing span, and the admission request id.
// Spans stay in memory and are written out once at exit.  With tracing
// off, open() returns -1 without touching the clock, so the untraced run
// measures the bare calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace etsn::perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = "";  // string literal
  double start = 0;       // seconds since the tracer was created
  double end = 0;
  int parent = -1;             // index of the enclosing span
  std::int64_t request = -1;   // admission request id, -1 elsewhere
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int open(const char* name, std::int64_t request = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, now(), 0, current_, request});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index) {
    if (index < 0) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = now();
    current_ = s.parent;
  }

  /// Summed duration of the spans named `name`, minus the time their
  /// direct children cover (the layer's self time).
  double selfSeconds(const std::string& name) const {
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name != spans_[i].name) continue;
      total += spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0 &&
          name == spans_[static_cast<std::size_t>(s.parent)].name) {
        total -= s.end - s.start;
      }
    }
    return total;
  }

  /// Durations of the spans named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
    return out;
  }

  std::size_t size() const { return spans_.size(); }

  /// Measured cost of one open() + close() pair in seconds, recorded into
  /// a scratch tracer so this one's spans are untouched.
  static double spanCost() {
    constexpr int kPairs = 100000;
    Tracer scratch(true);
    const auto start = Clock::now();
    for (int i = 0; i < kPairs; ++i) scratch.close(scratch.open("probe"));
    return secondsSince(start) / kPairs;
  }

  /// One JSON object per line: {"id", "name", "start", "end", "parent",
  /// "request"}.  Returns false if the file could not be written.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(12);  // microsecond resolution over hours of run time
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start\": " << s.start << ", \"end\": " << s.end
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Records one span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::int64_t request = -1)
      : tracer_(tracer), index_(tracer.open(name, request)) {}
  ~SpanScope() { tracer_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace etsn::perfbench
