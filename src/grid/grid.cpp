#include "grid/grid.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace grads::grid {

Link::Link(FlowRegistry& flows, LinkId id, LinkSpec spec)
    : id_(id), spec_(std::move(spec)), flows_(&flows) {
  GRADS_REQUIRE(spec_.latencySec >= 0.0, "Link: negative latency");
  GRADS_REQUIRE(spec_.bandwidthBytesPerSec > 0.0, "Link: bandwidth must be > 0");
  const LinkId registered =
      flows_->addLink(spec_.bandwidthBytesPerSec, spec_.perFlowCapBytesPerSec);
  GRADS_REQUIRE(registered == id_,
                "Link: registry link id out of step with grid link id");
}

double Link::availableBandwidth() const {
  if (!up_) return 0.0;
  return flows_->probeShare(id_);
}

void Link::setBandwidthScale(double scale) {
  GRADS_REQUIRE(scale > 0.0 && scale <= 1.0,
                "Link::setBandwidthScale: scale must be in (0, 1]");
  scale_ = scale;
  flows_->setLinkCapacity(id_, spec_.bandwidthBytesPerSec * scale);
}

Grid::Grid(sim::Engine& engine)
    : engine_(&engine), flows_(std::make_unique<FlowRegistry>(engine)) {}

ClusterId Grid::addCluster(ClusterSpec spec) {
  const ClusterId id = clusters_.size();
  const LinkId lan = links_.size();
  links_.push_back(std::make_unique<Link>(*flows_, lan, spec.lan));
  clusters_.push_back(Cluster{id, spec.name, spec.site, lan, {}});
  routes_.clear();
  return id;
}

NodeId Grid::addNode(ClusterId cluster, NodeSpec spec) {
  GRADS_REQUIRE(cluster < clusters_.size(), "addNode: unknown cluster");
  const NodeId id = nodes_.size();
  nodes_.push_back(std::make_unique<Node>(*engine_, id, std::move(spec)));
  nodes_.back()->setCluster(cluster);
  clusters_[cluster].nodes.push_back(id);
  return id;
}

LinkId Grid::connectClusters(ClusterId a, ClusterId b, LinkSpec spec) {
  GRADS_REQUIRE(a < clusters_.size() && b < clusters_.size(),
                "connectClusters: unknown cluster");
  GRADS_REQUIRE(a != b, "connectClusters: cannot connect a cluster to itself");
  const LinkId id = links_.size();
  links_.push_back(std::make_unique<Link>(*flows_, id, std::move(spec)));
  wan_[{std::min(a, b), std::max(a, b)}] = id;
  routes_.clear();
  return id;
}

Node& Grid::node(NodeId id) {
  GRADS_REQUIRE(id < nodes_.size(), "unknown node id");
  return *nodes_[id];
}
const Node& Grid::node(NodeId id) const {
  GRADS_REQUIRE(id < nodes_.size(), "unknown node id");
  return *nodes_[id];
}
Link& Grid::link(LinkId id) {
  GRADS_REQUIRE(id < links_.size(), "unknown link id");
  return *links_[id];
}
const Link& Grid::link(LinkId id) const {
  GRADS_REQUIRE(id < links_.size(), "unknown link id");
  return *links_[id];
}
const Cluster& Grid::cluster(ClusterId id) const {
  GRADS_REQUIRE(id < clusters_.size(), "unknown cluster id");
  return clusters_[id];
}
const std::vector<NodeId>& Grid::clusterNodes(ClusterId id) const {
  return cluster(id).nodes;
}

std::optional<ClusterId> Grid::findCluster(const std::string& name) const {
  for (const auto& c : clusters_) {
    if (c.name == name) return c.id;
  }
  return std::nullopt;
}

std::optional<NodeId> Grid::findNode(const std::string& name) const {
  for (const auto& n : nodes_) {
    if (n->name() == name) return n->id();
  }
  return std::nullopt;
}

std::vector<NodeId> Grid::allNodes() const {
  std::vector<NodeId> ids(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) ids[i] = i;
  return ids;
}

namespace {
const Route kNoHops{};  // a node to itself
}  // namespace

const Route& Grid::route(NodeId src, NodeId dst) const {
  GRADS_REQUIRE(src < nodes_.size() && dst < nodes_.size(),
                "route: unknown node");
  if (src == dst) return kNoHops;
  const ClusterId cs = nodes_[src]->cluster();
  const ClusterId cd = nodes_[dst]->cluster();
  if (routes_.empty()) routes_.resize(clusters_.size() * clusters_.size());
  std::optional<Route>& slot = routes_[cs * clusters_.size() + cd];
  // resolveRoute throws for unconnected clusters, leaving the slot empty.
  if (!slot) slot = resolveRoute(cs, cd);
  return *slot;
}

Route Grid::resolveRoute(ClusterId cs, ClusterId cd) const {
  Route r;
  if (cs == cd) {
    r.links.push_back(clusters_[cs].lan);
    r.latencySec = links_[clusters_[cs].lan]->latency();
    return r;
  }
  // BFS over the cluster graph to find the WAN hop sequence.
  std::vector<ClusterId> prev(clusters_.size(), kNoId);
  std::vector<bool> seen(clusters_.size(), false);
  std::deque<ClusterId> q{cs};
  seen[cs] = true;
  while (!q.empty()) {
    const ClusterId c = q.front();
    q.pop_front();
    if (c == cd) break;
    for (const auto& [key, link] : wan_) {
      (void)link;
      ClusterId other = kNoId;
      if (key.first == c) other = key.second;
      if (key.second == c) other = key.first;
      if (other != kNoId && !seen[other]) {
        seen[other] = true;
        prev[other] = c;
        q.push_back(other);
      }
    }
  }
  GRADS_REQUIRE(seen[cd], "route: clusters are not connected");

  std::vector<ClusterId> hops{cd};
  while (hops.back() != cs) hops.push_back(prev[hops.back()]);
  std::reverse(hops.begin(), hops.end());

  r.links.push_back(clusters_[cs].lan);
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const auto key = std::make_pair(std::min(hops[i], hops[i + 1]),
                                    std::max(hops[i], hops[i + 1]));
    r.links.push_back(wan_.at(key));
  }
  r.links.push_back(clusters_[cd].lan);
  // A route must never list the same link twice: its latency would be paid
  // twice and the flow would contend with itself on the shared segment,
  // halving effective bandwidth (the intra-cluster double-LAN bug). Dedupe
  // preserving hop order before summing latency.
  std::vector<LinkId> unique;
  unique.reserve(r.links.size());
  for (const LinkId l : r.links) {
    if (std::find(unique.begin(), unique.end(), l) == unique.end()) {
      unique.push_back(l);
    }
  }
  r.links = std::move(unique);
  for (const LinkId l : r.links) r.latencySec += links_[l]->latency();
  return r;
}

sim::Task Grid::transfer(NodeId src, NodeId dst, double bytes,
                         TransferClass cls) {
  GRADS_REQUIRE(bytes >= 0.0, "transfer: negative size");
  const Route& r = route(src, dst);
  // Fail fast on a partitioned path: connection setup does not complete, so
  // no bandwidth is consumed. Flows already in flight keep streaming.
  for (const LinkId l : r.links) {
    if (!links_[l]->isUp()) {
      throw LinkDownError("transfer " + nodes_[src]->name() + " -> " +
                          nodes_[dst]->name() + ": link " +
                          links_[l]->spec().name + " is down");
    }
  }
  // The latency sleep suspends, and connectClusters may clear the route
  // table meanwhile, so the flow gets its own copy of the link list.
  std::vector<LinkId> links = r.links;
  const double latency = r.latencySec;
  if (latency > 0.0) co_await sim::sleepFor(*engine_, latency);
  if (links.empty() || bytes == 0.0) co_return;
  // One flow over the whole route: the registry streams it at its max-min
  // bottleneck share (cut-through rather than store-and-forward) and
  // re-shares it as competing flows arrive and depart.
  co_await flows_->transfer(std::move(links), bytes, cls);
}

double Grid::transferEstimate(NodeId src, NodeId dst, double bytes) const {
  const Route& r = route(src, dst);
  if (r.links.empty()) return 0.0;
  double bw = sim::kInfTime;
  for (const LinkId l : r.links) {
    bw = std::min(bw, std::min(links_[l]->spec().bandwidthBytesPerSec,
                               links_[l]->spec().perFlowCapBytesPerSec));
  }
  return r.latencySec + bytes / bw;
}

namespace {
constexpr const char* kTopologyMismatch =
    "grid.fabric: snapshot topology does not match the rebuilt grid (was the "
    "testbed builder changed?)";
}  // namespace

// Hand-written rather than a snapshotIo field list: links live behind
// accessors, and decode must go through Link::setBandwidthScale, which
// validates the scale and re-solves the flow shares.
void Grid::encodeState(core::SnapshotWriter& w) const {
  w.expect(kTopologyMismatch, nodes_.size(), links_.size(), clusters_.size());
  for (const auto& link : links_) w(link->isUp(), link->bandwidthScale());
  w(*flows_);
}

void Grid::decodeState(core::SnapshotReader& r) {
  r.expect(kTopologyMismatch, nodes_.size(), links_.size(), clusters_.size());
  for (const auto& link : links_) {
    bool up = true;
    double scale = 1.0;
    r(up, scale);
    link->setUp(up);
    link->setBandwidthScale(scale);
  }
  r(*flows_);
}

}  // namespace grads::grid
