// The repository benchmark. Runs one workload — crash-restart,
// tenant-overload or workflow-mapping — on inputs generated from the seed,
// checks every simulated outcome, and prints the metrics as one JSON object
// on the last line of standard output.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--out-dir DIR] [--record]
//
//   --trace 0  untraced phases, S seconds' worth; prints the end-to-end
//              metrics.
//   --trace 1  untraced phases, S/2 seconds' worth, then as many traced
//              phases; prints the per-layer metrics and writes the traced
//              phase's spans (Chrome trace-event JSON) and the flat
//              per-layer metrics to --out-dir.
//   --data-dir the benchmark directory; expected outcomes are read from
//              DIR/expected/NAME.txt (one line per recorded seed). A file
//              that cannot be read is an error.
//   --record   run one phase and print this seed's expected-outcome line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "util/hash.hpp"
#include "util/log.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// Log sink that formats nothing further and writes nothing: it only counts
/// the lines the simulator emits, so terminal output stays out of timings.
class LineCounter final : public std::streambuf {
 public:
  std::uint64_t lines() const { return lines_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch == '\n') ++lines_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    lines_ += static_cast<std::uint64_t>(std::count(s, s + n, '\n'));
    return n;
  }

 private:
  std::uint64_t lines_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string dataDir;
  std::string outDir;
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveWorkload = false;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        haveWorkload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        haveSeed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--data-dir") {
        a.dataDir = v;
      } else if (k == "--out-dir") {
        a.outDir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return haveWorkload && haveSeed && a.seconds >= 0.0;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "crash-restart") return makeCrashRestart();
  if (name == "tenant-overload") return makeTenantOverload();
  if (name == "workflow-mapping") return makeWorkflowMapping();
  return nullptr;
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double minOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Phases a run of `seconds` makes. The count follows the workload's
/// nominal phase time, a constant, and never the speed of the code under
/// test: a faster change gets no more samples, and so no luckier minimum.
int phaseCount(const Sampling& s, double seconds) {
  constexpr int kMinPhases = 3;
  return std::max(kMinPhases,
                  static_cast<int>(std::lround(seconds / s.phaseSec)));
}

/// One digest over all the outcomes of a phase, as recorded per seed.
std::uint64_t phaseDigest(const std::vector<Outcome>& outcomes) {
  grads::util::DigestStream ds;
  ds.put(static_cast<std::uint64_t>(outcomes.size()));
  for (const Outcome& o : outcomes) ds.put(o.digest);
  return ds.digest();
}

/// The recorded phase digest of the seed, or nothing when the seed was
/// never recorded (every phase is then checked against the first). Throws
/// when --data-dir names a directory whose expected file cannot be read or
/// is malformed: a wrong directory must not quietly weaken the check.
std::optional<std::uint64_t> loadExpected(const Args& a) {
  if (a.dataDir.empty()) return std::nullopt;
  const std::string path = a.dataDir + "/expected/" + a.workload + ".txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t seed = 0;
    std::string hex;
    if (!(ls >> seed >> hex) || hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    if (seed == a.seed) return std::stoull(hex, nullptr, 16);
  }
  return std::nullopt;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Best times over a run's phases (min-of-N, N fixed by phaseCount). Every
/// phase runs the same ops in the same order, so op i is identical work in
/// every phase, and contention from other tenants of the host only ever
/// slows it: its best time is the steadiest estimate of the program's own
/// cost. A phase's time is the sum of its ops' best times plus the best
/// time the phase spent outside them.
class BestTimes {
 public:
  void add(const PhaseResult& r) {
    double opSec = 0.0;
    for (const double ms : r.opMs) opSec += ms / 1e3;
    if (phases_++ == 0) {
      opMs_ = r.opMs;
      restSec_ = r.wallSec - opSec;
      return;
    }
    for (std::size_t i = 0; i < opMs_.size() && i < r.opMs.size(); ++i) {
      opMs_[i] = std::min(opMs_[i], r.opMs[i]);
    }
    restSec_ = std::min(restSec_, r.wallSec - opSec);
  }

  bool empty() const { return phases_ == 0; }
  double wallSec() const {
    double sum = restSec_;
    for (const double ms : opMs_) sum += ms / 1e3;
    return sum;
  }
  double opPercentileMs(double q) const { return percentile(opMs_, q); }

 private:
  std::size_t phases_ = 0;
  std::vector<double> opMs_;
  double restSec_ = 0.0;
};

/// What the per-layer metrics need from one traced phase.
struct TracedPhase {
  Counters counters;
  LayerTimes layers;
  std::uint64_t logLines = 0;
};

std::vector<Metric> perLayerMetrics(const std::vector<TracedPhase>& phases,
                                    const BestTimes& untraced,
                                    const BestTimes& traced) {
  auto layer = [&](Layer l, bool self) {
    std::vector<double> v;
    for (const TracedPhase& p : phases) {
      const int i = static_cast<int>(l);
      v.push_back(self ? p.layers.self[i] : p.layers.total[i]);
    }
    return minOf(v);
  };
  std::vector<double> est;
  for (const TracedPhase& p : phases) est.push_back(p.counters.estimatorSec);
  const Counters& c = phases.back().counters;
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double schedS = layer(Layer::kScheduler, false);
  const double estS = minOf(est);
  return {
      {"sim.events", n(c.events), "count"},
      {"sim.engines", n(c.engines), "count"},
      {"sim.pool_nodes_peak", n(c.poolNodesPeak), "count"},
      {"sim.run_s", layer(Layer::kSimRun, false), "s"},
      {"sim.self_s", layer(Layer::kSimRun, true), "s"},
      {"snapshot.captures", n(c.captures), "count"},
      {"snapshot.capture_s", layer(Layer::kCapture, false), "s"},
      {"snapshot.serializes", n(c.serializes), "count"},
      {"snapshot.serialize_s", layer(Layer::kSerialize, false), "s"},
      {"snapshot.serialize_bytes", n(c.serializeBytes), "bytes"},
      {"snapshot.parses", n(c.parses), "count"},
      {"snapshot.parse_s", layer(Layer::kParse, false), "s"},
      {"snapshot.parse_bytes", n(c.parseBytes), "bytes"},
      {"snapshot.restores", n(c.restores), "count"},
      {"snapshot.restore_s", layer(Layer::kRestore, false), "s"},
      {"snapshot.parse_ratio", ratio(n(c.parses), n(c.serializes)), "ratio"},
      {"world.builds", n(c.worldBuilds), "count"},
      {"world.build_s", layer(Layer::kWorldBuild, false), "s"},
      {"flow.opened", n(c.flowsOpened), "count"},
      {"flow.solves", n(c.flowSolves), "count"},
      {"flow.peak_concurrent", n(c.flowPeakConcurrent), "count"},
      {"nws.samples", n(c.nwsSamples), "count"},
      {"scheduler.calls", n(c.schedulerCalls), "count"},
      {"scheduler.components", n(c.schedulerComponents), "count"},
      {"scheduler.s", schedS, "s"},
      {"scheduler.self_s", schedS - estS, "s"},
      {"estimator.ecost_calls", n(c.ecostCalls), "count"},
      {"estimator.transfer_calls", n(c.transferCalls), "count"},
      {"estimator.s", estS, "s"},
      {"journal.transitions", n(c.journalTransitions), "count"},
      {"journal.committed", n(c.journalCommitted), "count"},
      {"journal.rolled_back", n(c.journalRolledBack), "count"},
      {"whatif.decisions", n(c.whatifDecisions), "count"},
      {"whatif.forks", n(c.whatifForks), "count"},
      {"whatif.fallbacks", n(c.whatifFallbacks), "count"},
      {"whatif.override_ratio",
       ratio(n(c.whatifOverrides), n(c.whatifDecisions)), "ratio"},
      {"whatif.fork_s", layer(Layer::kFork, false), "s"},
      {"metasched.transitions", n(c.metaTransitions), "count"},
      {"metasched.ticks", n(c.metaTicks), "count"},
      {"metasched.submitted", n(c.metaSubmitted), "count"},
      {"metasched.dispatched", n(c.metaDispatched), "count"},
      {"metasched.preempted", n(c.metaPreempted), "count"},
      {"metasched.shed", n(c.metaShed), "count"},
      {"metasched.admit_ratio",
       ratio(n(c.metaAdmitted), n(c.metaSubmitted)), "ratio"},
      {"metasched.peak_in_system", n(c.metaPeakInSystem), "count"},
      {"crash.points", n(c.crashPoints), "count"},
      {"crash.distinct_images", n(c.distinctImages), "count"},
      {"log.lines", n(phases.back().logLines), "count"},
      {"trace.overhead_s", traced.wallSec() - untraced.wallSec(), "s"},
  };
}

int run(const Args& a) {
  std::unique_ptr<Workload> wl = makeWorkload(a.workload);
  if (!wl) {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  const std::optional<std::uint64_t> expected = loadExpected(a);
  const Sampling sampling = wl->sampling();

  LineCounter counter;
  std::ostream logSink(&counter);
  grads::log::config().sink = &logSink;

  Probe probe;
  probe.beginPhase(false);

  // Set-up, repeated a fixed number of times; setup_s is the median. The
  // minimum of set-ups that last only microseconds is a lucky outlier that
  // moves between processes by a third; their median holds within a few
  // percent. The phases run on the last set-up.
  std::vector<double> setupSec;
  const int setups = a.record ? 1 : sampling.setups;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    wl->setup(a.seed, probe);
    setupSec.push_back(secondsSince(t0));
  }
  if (!a.record) wl->warmUp(probe);

  std::vector<std::uint64_t> reference;  ///< the first phase's op digests
  std::uint64_t firstPhaseDigest = 0;
  BestTimes untraced;
  BestTimes traced;
  std::vector<TracedPhase> tracedPhases;
  std::vector<Span> lastSpans;
  std::size_t phasesRun = 0;
  std::size_t opSamples = 0;
  double doneOps = 0.0;  ///< verified ops of the worst untraced phase
  double events = 0.0;   ///< engine events of one untraced phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  auto runPhases = [&](bool tracing, int count) {
    for (int done = 0; done < count; ++done) {
      probe.beginPhase(tracing);
      const std::uint64_t linesBefore = counter.lines();
      const PhaseResult r = wl->runPhase(probe);
      if (reference.empty()) {
        for (const Outcome& o : r.outcomes) reference.push_back(o.digest);
        firstPhaseDigest = phaseDigest(r.outcomes);
      }
      // A phase whose digest differs from the recorded one fails all its
      // ops; otherwise each op must repeat the first phase's outcome.
      const bool recordedOk = !expected || phaseDigest(r.outcomes) == *expected;
      const bool sameShape = reference.size() == r.outcomes.size();
      std::uint64_t phaseOps = 0;
      std::uint64_t phaseFailed = 0;
      for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        const Outcome& o = r.outcomes[i];
        const bool match = recordedOk && sameShape && o.digest == reference[i];
        phaseOps += o.ops;
        phaseFailed += match ? o.failedOps : o.ops;
      }
      attempted += phaseOps;
      failed += phaseFailed;
      opSamples = r.opMs.size();
      if (tracing) {
        traced.add(r);
        tracedPhases.push_back(
            {probe.counters(), probe.layerTimes(), counter.lines() - linesBefore});
        lastSpans = probe.spans();
      } else {
        const double verified = static_cast<double>(phaseOps - phaseFailed);
        doneOps = untraced.empty() ? verified : std::min(doneOps, verified);
        events = static_cast<double>(probe.counters().events);
        untraced.add(r);
      }
      ++phasesRun;
      std::fprintf(stderr, "phase %zu%s: %.4f s, %llu failed\n", phasesRun,
                   tracing ? " (traced)" : "", r.wallSec,
                   static_cast<unsigned long long>(phaseFailed));
    }
  };

  if (a.record) {
    // Only a phase that passes the workload's own checks is recorded.
    runPhases(false, 1);
    if (failed != 0) return 1;
    std::printf("%llu %016llx\n", static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(firstPhaseDigest));
    return 0;
  }

  if (a.trace) {
    const int n = phaseCount(sampling, a.seconds / 2.0);
    runPhases(false, n);
    runPhases(true, n);
  } else {
    runPhases(false, phaseCount(sampling, a.seconds));
  }

  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = perLayerMetrics(tracedPhases, untraced, traced);
    if (!a.outDir.empty()) {
      const std::string stem = a.outDir + "/" + a.workload + "-seed" +
                               std::to_string(a.seed);
      writeChromeTrace(stem + ".trace.json", lastSpans);
      std::ofstream(stem + ".layers.json") << metricsJson(metrics) << "\n";
    }
  } else {
    const double wall = untraced.wallSec();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"wall_s", wall, "s"},
        {"setup_s", median(setupSec), "s"},
        {"ops_per_s", ratio(doneOps, wall), "1/s"},
        {"op_p50_ms", untraced.opPercentileMs(0.50), "ms"},
        {"op_p90_ms", untraced.opPercentileMs(0.90), "ms"},
        {"sim_events_per_s", ratio(events, wall), "1/s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
  }

  const char* checked =
      expected ? "checked against the recorded seed"
               : "NOT checked against a recording (seed not recorded): "
                 "checked for phase-to-phase repeatability only";
  std::cerr << "perfbench: outcomes " << checked << "\n";
  std::cout << a.workload << " seed " << a.seed << ": " << phasesRun
            << " phases, " << setupSec.size() << " set-ups, " << opSamples
            << " op latency samples per phase, outcomes " << checked << "\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--out-dir DIR] [--record]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
