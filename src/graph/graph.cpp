#include "graph/graph.h"

#include <cmath>
#include <stdexcept>

namespace dtr {

double euclidean_distance(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Graph::Graph(std::size_t num_nodes) {
  positions_.resize(num_nodes);
  out_arcs_.resize(num_nodes);
  in_arcs_.resize(num_nodes);
}

Graph::Graph(const Graph& o)
    : positions_(o.positions_),
      arcs_(o.arcs_),
      out_arcs_(o.out_arcs_),
      in_arcs_(o.in_arcs_),
      links_(o.links_) {}

Graph& Graph::operator=(const Graph& o) {
  if (this == &o) return *this;
  positions_ = o.positions_;
  arcs_ = o.arcs_;
  out_arcs_ = o.out_arcs_;
  in_arcs_ = o.in_arcs_;
  links_ = o.links_;
  invalidate_csr();
  return *this;
}

Graph::Graph(Graph&& o) noexcept
    : positions_(std::move(o.positions_)),
      arcs_(std::move(o.arcs_)),
      out_arcs_(std::move(o.out_arcs_)),
      in_arcs_(std::move(o.in_arcs_)),
      links_(std::move(o.links_)) {}

Graph& Graph::operator=(Graph&& o) noexcept {
  if (this == &o) return *this;
  positions_ = std::move(o.positions_);
  arcs_ = std::move(o.arcs_);
  out_arcs_ = std::move(o.out_arcs_);
  in_arcs_ = std::move(o.in_arcs_);
  links_ = std::move(o.links_);
  invalidate_csr();
  return *this;
}

NodeId Graph::add_node(Point position) {
  positions_.push_back(position);
  out_arcs_.emplace_back();
  in_arcs_.emplace_back();
  invalidate_csr();
  return static_cast<NodeId>(positions_.size() - 1);
}

namespace {
void check_endpoints(std::size_t n, NodeId u, NodeId v) {
  if (u >= n || v >= n) throw std::out_of_range("Graph: endpoint out of range");
  if (u == v) throw std::invalid_argument("Graph: self-loops are not allowed");
}
void check_positive(double value, const char* what) {
  if (!(value > 0.0) || !std::isfinite(value))
    throw std::invalid_argument(std::string("Graph: ") + what + " must be finite and > 0");
}
void check_delay(double prop_delay_ms) {
  if (!(prop_delay_ms >= 0.0) || !std::isfinite(prop_delay_ms))
    throw std::invalid_argument("Graph: delay must be finite and >= 0");
}
}  // namespace

LinkId Graph::add_link(NodeId u, NodeId v, double capacity_mbps, double prop_delay_ms) {
  check_endpoints(num_nodes(), u, v);
  check_positive(capacity_mbps, "capacity");
  check_delay(prop_delay_ms);

  const LinkId link = static_cast<LinkId>(links_.size());
  const ArcId fwd = static_cast<ArcId>(arcs_.size());
  const ArcId bwd = fwd + 1;
  arcs_.push_back({u, v, capacity_mbps, prop_delay_ms, link, bwd});
  arcs_.push_back({v, u, capacity_mbps, prop_delay_ms, link, fwd});
  out_arcs_[u].push_back(fwd);
  in_arcs_[v].push_back(fwd);
  out_arcs_[v].push_back(bwd);
  in_arcs_[u].push_back(bwd);
  links_.push_back({fwd, bwd});
  invalidate_csr();
  return link;
}

ArcId Graph::add_arc(NodeId u, NodeId v, double capacity_mbps, double prop_delay_ms) {
  check_endpoints(num_nodes(), u, v);
  check_positive(capacity_mbps, "capacity");
  check_delay(prop_delay_ms);

  const LinkId link = static_cast<LinkId>(links_.size());
  const ArcId a = static_cast<ArcId>(arcs_.size());
  arcs_.push_back({u, v, capacity_mbps, prop_delay_ms, link, kInvalidArc});
  out_arcs_[u].push_back(a);
  in_arcs_[v].push_back(a);
  links_.push_back({a});
  invalidate_csr();
  return a;
}

void Graph::build_csr() const {
  const std::size_t n = num_nodes();
  const std::size_t m = num_arcs();

  csr_.out_offset.assign(n + 1, 0);
  csr_.in_offset.assign(n + 1, 0);
  csr_.out_arc.resize(m);
  csr_.out_head.resize(m);
  csr_.in_arc.resize(m);
  csr_.in_tail.resize(m);
  csr_.src.resize(m);
  csr_.dst.resize(m);
  csr_.capacity.resize(m);
  csr_.prop_delay_ms.resize(m);
  csr_.link.resize(m);

  // The per-node construction vectors already hold arcs in ascending-arc-id
  // order (ids are append-only); copying them verbatim keeps CSR iteration
  // order — and every float-accumulation order downstream — identical to
  // the legacy layout.
  std::size_t out_k = 0;
  std::size_t in_k = 0;
  for (NodeId u = 0; u < n; ++u) {
    csr_.out_offset[u] = static_cast<std::uint32_t>(out_k);
    for (ArcId a : out_arcs_[u]) {
      csr_.out_arc[out_k] = a;
      csr_.out_head[out_k] = arcs_[a].dst;
      ++out_k;
    }
    csr_.in_offset[u] = static_cast<std::uint32_t>(in_k);
    for (ArcId a : in_arcs_[u]) {
      csr_.in_arc[in_k] = a;
      csr_.in_tail[in_k] = arcs_[a].src;
      ++in_k;
    }
  }
  csr_.out_offset[n] = static_cast<std::uint32_t>(out_k);
  csr_.in_offset[n] = static_cast<std::uint32_t>(in_k);

  for (ArcId a = 0; a < m; ++a) {
    const Arc& arc = arcs_[a];
    csr_.src[a] = arc.src;
    csr_.dst[a] = arc.dst;
    csr_.capacity[a] = arc.capacity;
    csr_.prop_delay_ms[a] = arc.prop_delay_ms;
    csr_.link[a] = arc.link;
  }
}

const GraphCsr& Graph::csr() const {
  if (!csr_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(csr_mutex_);
    if (!csr_valid_.load(std::memory_order_relaxed)) {
      build_csr();
      csr_valid_.store(true, std::memory_order_release);
    }
  }
  return csr_;
}

bool Graph::has_arc_between(NodeId u, NodeId v) const {
  for (ArcId a : out_arcs_[u])
    if (arcs_[a].dst == v) return true;
  return false;
}

std::size_t Graph::link_degree(NodeId u) const {
  // With paired arcs every incident link contributes exactly one out-arc.
  return out_arcs_[u].size();
}

double Graph::average_link_degree() const {
  if (num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_links()) / static_cast<double>(num_nodes());
}

void Graph::scale_prop_delays(double factor) {
  check_positive(factor, "delay scale factor");
  for (Arc& a : arcs_) a.prop_delay_ms *= factor;
  invalidate_csr();
}

void Graph::set_link_prop_delay(LinkId l, double prop_delay_ms) {
  check_delay(prop_delay_ms);
  for (ArcId a : links_.at(l)) arcs_[a].prop_delay_ms = prop_delay_ms;
  invalidate_csr();
}

void Graph::set_uniform_capacity(double capacity_mbps) {
  check_positive(capacity_mbps, "capacity");
  for (Arc& a : arcs_) a.capacity = capacity_mbps;
  invalidate_csr();
}

void Graph::scale_link_capacity(LinkId l, double factor) {
  check_positive(factor, "capacity scale factor");
  for (ArcId a : links_.at(l)) arcs_[a].capacity *= factor;
  invalidate_csr();
}

}  // namespace dtr
