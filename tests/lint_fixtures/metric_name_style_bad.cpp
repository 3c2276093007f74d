// extdict-lint-expect: metric-name-style
// Metric names that break the lowercase dot-path convention: CamelCase,
// dash-separated, a double dot (empty segment), a trailing dot in a
// concatenation prefix, an empty name, and bad names at the histogram,
// trace-instant and named-TraceScope entry points. Every line marked
// `extdict-lint-hit` must be flagged, and no other line.

#include <cstdint>
#include <string>

struct Registry {
  void add(const std::string&, std::uint64_t) {}
  struct G { void set(std::int64_t) {} };
  G& gauge(const std::string&) { static G g; return g; }
  void observe(const std::string&, double) {}
};

struct Recorder {
  void instant(const std::string&) {}
};

struct TraceScope {
  TraceScope(Recorder&, const std::string&) {}
};

void instrument(Registry& registry, Recorder& trace, int rank) {
  registry.add("Serve.Queue.Depth", 1);  // extdict-lint-hit
  registry.add("serve-cache-hits", 1);  // extdict-lint-hit
  registry.gauge("serve..inflight").set(3);  // extdict-lint-hit
  registry.add("serve.lane." + std::to_string(rank), 1);  // extdict-lint-hit
  registry.observe("", 1e-3);  // extdict-lint-hit
  registry.observe("serve.latency.Queue", 1e-3);  // extdict-lint-hit
  trace.instant("serve.request submit");  // extdict-lint-hit
  const TraceScope scope(trace, "Serve.Batch");  // extdict-lint-hit
}
