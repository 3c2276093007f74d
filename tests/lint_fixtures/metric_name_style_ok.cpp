// extdict-lint-expect: none
// Compliant metric names: plain dot-paths, a unit-suffixed histogram, a
// well-formed concatenation prefix, a waived legacy key, a commented-out
// bad call (no call at all), and a non-literal first argument (out of this
// rule's reach — the variable's contents are checked where it is defined).

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

void instrument(Registry& registry, Recorder& trace, int rank,
                const std::string& dynamic) {
  registry.add("serve.submitted", 1);
  registry.gauge("serve.queue.depth").set(3);
  registry.observe("serve.latency.total_seconds", 1e-3);
  trace.instant("serve.request.submit");
  const TraceScope scope(trace, "serve.batch.encode");
  registry.add("trace.events.rank" + std::to_string(rank), 1);
  // extdict-lint: allow(metric-name-style) legacy dashboard key, renamed in v2
  registry.add("Legacy-Dashboard-Key", 1);
  // registry.add("Commented.Out.Bad.Name", 1);
  registry.add(dynamic, 1);
}
