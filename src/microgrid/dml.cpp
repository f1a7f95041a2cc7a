#include "microgrid/dml.hpp"

#include <sstream>

#include "grid/testbeds.hpp"
#include "util/error.hpp"

namespace grads::microgrid {

std::size_t VirtualGridSpec::totalNodes() const {
  std::size_t n = 0;
  for (const auto& c : clusters) {
    for (const auto& g : c.nodes) n += static_cast<std::size_t>(g.count);
  }
  return n;
}

namespace {

[[noreturn]] void parseError(int line, const std::string& msg) {
  throw InvalidArgument("DML parse error at line " + std::to_string(line) +
                        ": " + msg);
}

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::istringstream is{std::string(line)};
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;
    tokens.push_back(tok);
  }
  return tokens;
}

double parseNumber(const std::string& tok, int line) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(tok, &pos);
    if (pos != tok.size()) parseError(line, "trailing junk in number " + tok);
    return v;
  } catch (const std::exception&) {
    parseError(line, "expected a number, got '" + tok + "'");
  }
}

}  // namespace

VirtualGridSpec parseDml(const std::string& text) {
  VirtualGridSpec spec;
  DmlCluster* open = nullptr;
  int lineNo = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ++lineNo;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& kw = tokens[0];

    if (kw == "cluster") {
      if (open != nullptr) parseError(lineNo, "nested cluster");
      if (tokens.size() != 4) {
        parseError(lineNo, "cluster needs: cluster <name> <site> <lan>");
      }
      if (tokens[3] != "ethernet100" && tokens[3] != "myrinet" &&
          tokens[3] != "gigabit") {
        parseError(lineNo, "unknown lan kind '" + tokens[3] + "'");
      }
      spec.clusters.push_back(DmlCluster{tokens[1], tokens[2], tokens[3], {}});
      open = &spec.clusters.back();
    } else if (kw == "node") {
      if (open == nullptr) parseError(lineNo, "node outside cluster");
      if (tokens.size() != 6) {
        parseError(lineNo,
                   "node needs: node <mhz> <cpus> <flops/cycle> <eff> x<n>");
      }
      DmlNodeGroup g;
      g.mhz = parseNumber(tokens[1], lineNo);
      g.cpus = static_cast<int>(parseNumber(tokens[2], lineNo));
      g.flopsPerCycle = parseNumber(tokens[3], lineNo);
      g.efficiency = parseNumber(tokens[4], lineNo);
      if (tokens[5].size() < 2 || tokens[5][0] != 'x') {
        parseError(lineNo, "count must look like x<N>");
      }
      g.count = static_cast<int>(parseNumber(tokens[5].substr(1), lineNo));
      if (g.count < 1) parseError(lineNo, "count must be >= 1");
      open->nodes.push_back(g);
    } else if (kw == "end") {
      if (open == nullptr) parseError(lineNo, "end without cluster");
      if (open->nodes.empty()) parseError(lineNo, "cluster has no nodes");
      open = nullptr;
    } else if (kw == "load") {
      if (open != nullptr) parseError(lineNo, "load inside cluster");
      if (tokens.size() < 5) {
        parseError(lineNo, "load needs: load <node> step|pulse <args...>");
      }
      DmlLoad l;
      l.node = tokens[1];
      if (tokens[2] == "step") {
        if (tokens.size() != 5) {
          parseError(lineNo, "load step needs: <at-seconds> <weight>");
        }
        l.trace = grid::LoadTrace::stepAt(parseNumber(tokens[3], lineNo),
                                          parseNumber(tokens[4], lineNo));
      } else if (tokens[2] == "pulse") {
        if (tokens.size() != 6) {
          parseError(lineNo, "load pulse needs: <from> <until> <weight>");
        }
        l.trace = grid::LoadTrace::pulse(parseNumber(tokens[3], lineNo),
                                         parseNumber(tokens[4], lineNo),
                                         parseNumber(tokens[5], lineNo));
      } else {
        parseError(lineNo, "unknown load kind '" + tokens[2] + "'");
      }
      spec.loads.push_back(std::move(l));
    } else if (kw == "wan") {
      if (open != nullptr) parseError(lineNo, "wan inside cluster");
      if (tokens.size() != 5) {
        parseError(lineNo, "wan needs: wan <a> <b> <latency-s> <bw-B/s>");
      }
      DmlWan w;
      w.a = tokens[1];
      w.b = tokens[2];
      w.latencySec = parseNumber(tokens[3], lineNo);
      w.bandwidthBytesPerSec = parseNumber(tokens[4], lineNo);
      spec.wans.push_back(w);
    } else {
      parseError(lineNo, "unknown keyword '" + kw + "'");
    }
  }
  if (open != nullptr) {
    parseError(lineNo, "unterminated cluster '" + open->name + "'");
  }
  // Validate WAN endpoints.
  for (const auto& w : spec.wans) {
    auto known = [&](const std::string& n) {
      for (const auto& c : spec.clusters) {
        if (c.name == n) return true;
      }
      return false;
    };
    if (!known(w.a) || !known(w.b)) {
      throw InvalidArgument("DML: wan references unknown cluster " + w.a +
                            " or " + w.b);
    }
  }
  return spec;
}

namespace {
/// Fraction of CPU lost to virtualization.
constexpr double kCpuOverhead = 0.03;
constexpr double kLatencyOverhead = 0.05;  ///< added fractional network latency
constexpr double kBandwidthLoss = 0.03;    ///< fraction of bandwidth lost
}  // namespace

void instantiate(grid::Grid& grid, const VirtualGridSpec& spec, bool emulated) {
  GRADS_REQUIRE(!spec.clusters.empty(), "instantiate: empty spec");
  for (const auto& c : spec.clusters) {
    int lanNodes = 0;
    for (const auto& g : c.nodes) lanNodes += g.count;
    grid::LinkSpec lan;
    if (c.lanKind == "ethernet100") {
      lan = grid::fastEthernetLan(c.name + ".lan", lanNodes);
    } else if (c.lanKind == "myrinet") {
      lan = grid::myrinetLan(c.name + ".lan", lanNodes);
    } else {
      lan = grid::gigabitLan(c.name + ".lan", lanNodes);
    }
    if (emulated) {
      lan.latencySec *= 1.0 + kLatencyOverhead;
      lan.bandwidthBytesPerSec *= 1.0 - kBandwidthLoss;
      lan.perFlowCapBytesPerSec *= 1.0 - kBandwidthLoss;
    }
    const auto cid = grid.addCluster(grid::ClusterSpec{c.name, c.site, lan});
    int index = 0;
    for (const auto& g : c.nodes) {
      for (int i = 0; i < g.count; ++i) {
        grid::NodeSpec ns;
        ns.name = c.name + std::to_string(index++);
        ns.mhz = g.mhz;
        ns.cpus = g.cpus;
        ns.flopsPerCycle = g.flopsPerCycle;
        ns.efficiency = g.efficiency;
        if (emulated) ns.efficiency *= 1.0 - kCpuOverhead;
        grid.addNode(cid, ns);
      }
    }
  }
  for (const auto& l : spec.loads) {
    const auto node = grid.findNode(l.node);
    GRADS_REQUIRE(node.has_value(),
                  "instantiate: load references unknown node " + l.node);
    grid::applyLoadTrace(grid.engine(), grid.node(*node), l.trace);
  }
  for (const auto& w : spec.wans) {
    const auto a = grid.findCluster(w.a);
    const auto b = grid.findCluster(w.b);
    GRADS_ASSERT(a && b, "instantiate: wan endpoints vanished");
    grid::LinkSpec wan = grid::internetWan(w.a + "-" + w.b + ".wan",
                                           w.latencySec,
                                           w.bandwidthBytesPerSec);
    if (emulated) {
      wan.latencySec *= 1.0 + kLatencyOverhead;
      wan.bandwidthBytesPerSec *= 1.0 - kBandwidthLoss;
      wan.perFlowCapBytesPerSec = wan.bandwidthBytesPerSec;
    }
    grid.connectClusters(*a, *b, wan);
  }
}

std::string swapExperimentDml() {
  return R"(# MicroGrid virtual grid for the process-swapping demonstration
# (paper section 4.2.2)
cluster utk UTK gigabit
  node 550 1 1.0 0.45 x3
end
cluster uiuc UIUC gigabit
  node 450 1 1.0 0.45 x3
end
cluster ucsd UCSD gigabit
  node 1700 1 2.0 0.40 x1
end
wan utk uiuc 0.011 2097152
wan ucsd utk 0.030 2097152
wan ucsd uiuc 0.030 2097152
)";
}

}  // namespace grads::microgrid
