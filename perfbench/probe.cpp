#include "probe.hpp"

#include <algorithm>
#include <cstdio>

#include "grid/grid.hpp"
#include "sim/engine.hpp"

namespace perfbench {

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kWorldBuild: return "world.build";
    case Layer::kSimRun: return "sim.run";
    case Layer::kCapture: return "snapshot.capture";
    case Layer::kSerialize: return "snapshot.serialize";
    case Layer::kParse: return "snapshot.parse";
    case Layer::kRestore: return "snapshot.restore";
    case Layer::kScheduler: return "scheduler";
    case Layer::kFork: return "whatif.fork";
  }
  return "?";
}

void Counters::noteEngine(const grads::sim::Engine& eng) {
  events += eng.processedEvents();
  ++engines;
  poolNodesPeak = std::max<std::uint64_t>(poolNodesPeak, eng.poolSize());
}

void Counters::noteFlows(const grads::grid::Grid& g) {
  const auto& f = g.flows();
  flowsOpened += f.flowsOpened();
  flowSolves += f.solves();
  flowPeakConcurrent = std::max(flowPeakConcurrent, f.peakConcurrentFlows());
}

void Probe::beginPhase(bool traced) {
  tracing_ = traced;
  counters_ = Counters{};
  spans_.clear();
  current_ = -1;
  op_ = 0;
  origin_ = Clock::now();
}

std::int32_t Probe::open(Layer layer) {
  Span s;
  s.layer = layer;
  s.parent = current_;
  s.op = op_;
  s.start = secondsSince(origin_);
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Probe::close(std::int32_t span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end = secondsSince(origin_);
  current_ = s.parent;
}

LayerTimes Probe::layerTimes() const {
  LayerTimes out;
  std::vector<double> childSum(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) childSum[s.parent] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int l = static_cast<int>(s.layer);
    const double dur = s.end - s.start;
    out.self[l] += dur - childSum[i];
    bool nested = false;
    for (std::int32_t p = s.parent; p >= 0 && !nested;
         p = spans_[static_cast<std::size_t>(p)].parent) {
      nested = spans_[static_cast<std::size_t>(p)].layer == s.layer;
    }
    if (!nested) out.total[l] += dur;
  }
  return out;
}

bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"op\":%u,\"span\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", layerName(s.layer), s.start * 1e6,
                 (s.end - s.start) * 1e6, s.op, i, s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
