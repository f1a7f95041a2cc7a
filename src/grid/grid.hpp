#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "grid/flow.hpp"
#include "grid/node.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/error.hpp"

namespace grads::grid {

/// Raised when a transfer is attempted across a link that is down (network
/// partition). Callers with a degraded-mode path catch this and retry with
/// backoff — partitions heal — instead of dying on first contact.
class LinkDownError : public Error {
 public:
  explicit LinkDownError(const std::string& what) : Error(what) {}
};

/// A network link (WAN pipe or cluster switch). Bandwidth is divided among
/// the flows crossing the link by the grid's FlowRegistry (weighted max-min
/// fair shares); perFlowCap bounds any single flow (a switched LAN gives
/// each pair its own wire speed even though the backplane is larger).
struct LinkSpec {
  std::string name;
  double latencySec = 0.0;
  double bandwidthBytesPerSec = 1e6;
  double perFlowCapBytesPerSec = sim::kInfTime;
};

class Link {
 public:
  Link(FlowRegistry& flows, LinkId id, LinkSpec spec);
  LinkId id() const { return id_; }
  const LinkSpec& spec() const { return spec_; }
  double latency() const { return spec_.latencySec; }
  /// Bandwidth a new flow would get right now (bytes/s); 0 while down.
  double availableBandwidth() const;

  /// Partition state: a down link refuses new transfers (LinkDownError);
  /// flows already streaming keep draining at the degraded rate.
  void setUp(bool up) { up_ = up; }
  bool isUp() const { return up_; }

  /// Scales deliverable bandwidth to `scale`·nominal (0 < scale <= 1) —
  /// a congested or flapping WAN path; every flow sharing the link is
  /// re-shared at the new capacity. 1.0 restores the full spec rate.
  void setBandwidthScale(double scale);
  double bandwidthScale() const { return scale_; }

 private:
  LinkId id_;
  LinkSpec spec_;
  bool up_ = true;
  double scale_ = 1.0;
  FlowRegistry* flows_;
};

/// Cluster of nodes sharing a LAN switch.
struct ClusterSpec {
  std::string name;
  std::string site;  ///< e.g. "UTK", "UIUC", "UCSD", "UH"
  LinkSpec lan;
};

struct Cluster {
  ClusterId id = kNoId;
  std::string name;
  std::string site;
  LinkId lan = kNoId;
  std::vector<NodeId> nodes;
};

/// Resolved route between two nodes.
struct Route {
  std::vector<LinkId> links;  ///< in order; empty for same-node transfers
  double latencySec = 0.0;
};

/// The Grid resource fabric: nodes grouped into clusters, clusters joined by
/// WAN links, with BFS routing across the cluster graph. This plays the role
/// of the paper's MacroGrid testbed (and, wrapped by grads::microgrid, of the
/// MicroGrid's virtual resource infrastructure).
class Grid : public core::Snapshottable {
 public:
  explicit Grid(sim::Engine& engine);
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  /// Snapshot participation. Topology (clusters, nodes, links, specs) is
  /// *configuration*, rebuilt by re-running the scenario's testbed builder;
  /// the snapshot carries only mutable fabric state (link up/scale, flow-
  /// registry configuration and counters) plus the topology counts, which
  /// decode validates against the rebuilt grid. Background CPU load is
  /// deliberately excluded: PsResource job lists are coroutine-held and are
  /// re-armed from their LoadTrace (see applyLoadTraceFrom) at restore;
  /// active network flows likewise live in coroutine frames and restart
  /// from checkpoints.
  const char* snapshotSection() const override { return "grid.fabric"; }
  void encodeState(core::SnapshotWriter& w) const override;
  void decodeState(core::SnapshotReader& r) override;

  sim::Engine& engine() const { return *engine_; }

  ClusterId addCluster(ClusterSpec spec);
  NodeId addNode(ClusterId cluster, NodeSpec spec);
  /// Adds a WAN link and records it as the route between the two clusters.
  LinkId connectClusters(ClusterId a, ClusterId b, LinkSpec spec);

  std::size_t nodeCount() const { return nodes_.size(); }
  std::size_t linkCount() const { return links_.size(); }
  std::size_t clusterCount() const { return clusters_.size(); }
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  Link& link(LinkId id);
  const Link& link(LinkId id) const;
  const Cluster& cluster(ClusterId id) const;
  const std::vector<NodeId>& clusterNodes(ClusterId id) const;
  std::optional<ClusterId> findCluster(const std::string& name) const;
  std::optional<NodeId> findNode(const std::string& name) const;
  std::vector<NodeId> allNodes() const;

  /// Resolves the route between two nodes. A route depends only on the two
  /// nodes' clusters, so the first query for a cluster pair runs a BFS over
  /// the cluster graph and later ones read the stored result. The reference
  /// stays valid until the next addCluster or connectClusters.
  const Route& route(NodeId src, NodeId dst) const;

  /// Moves `bytes` from src to dst: pays route latency once, then streams
  /// as one flow at the route's max-min bottleneck share, re-solved as
  /// competing flows come and go. Bulk-class transfers yield bandwidth to
  /// interactive ones on contended links (FlowRegistry pacing).
  sim::Task transfer(NodeId src, NodeId dst, double bytes,
                     TransferClass cls = TransferClass::kInteractive);

  /// Uncontended estimate of transfer(src,dst,bytes) in seconds; what a
  /// scheduler computes from NWS forecasts of latency and bandwidth.
  double transferEstimate(NodeId src, NodeId dst, double bytes) const;

  /// The flow-level network model behind transfer(): congestion gauges,
  /// pacing configuration, ablation modes.
  FlowRegistry& flows() { return *flows_; }
  const FlowRegistry& flows() const { return *flows_; }

 private:
  sim::Engine* engine_;  // grads: transient(wiring, re-bound at construction)
  // Declared before links_: every Link holds a pointer into the registry.
  std::unique_ptr<FlowRegistry> flows_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Cluster> clusters_;
  // grads: transient(route index rebuilt by the testbed builder - only dynamic link state is decoded)
  std::map<std::pair<ClusterId, ClusterId>, LinkId> wan_;
  // grads: transient(route memo, a pure function of the topology - filled on first query, cleared by addCluster and connectClusters)
  mutable std::vector<std::optional<Route>> routes_;  // [src * clusters + dst]

  Route resolveRoute(ClusterId cs, ClusterId cd) const;
};

}  // namespace grads::grid
