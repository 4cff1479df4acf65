#include "routing/failures.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dtr {

namespace {

void sort_unique_u32(std::vector<std::uint32_t>& xs) {
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
}

std::string join_ids(std::span<const std::uint32_t> ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += "+";
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace

FailureScenario FailureScenario::compound(std::vector<LinkId> links,
                                          std::vector<NodeId> nodes) {
  FailureScenario s;
  s.kind = Kind::kCompound;
  sort_unique_u32(links);
  sort_unique_u32(nodes);
  s.links = std::move(links);
  s.nodes = std::move(nodes);
  return s;
}

std::string to_string(const FailureScenario& s) {
  switch (s.kind) {
    case FailureScenario::Kind::kNone: return "none";
    case FailureScenario::Kind::kLink: return "link#" + std::to_string(s.id);
    case FailureScenario::Kind::kNode: return "node#" + std::to_string(s.id);
    case FailureScenario::Kind::kCompound: {
      if (s.links.empty() && s.nodes.empty()) return "compound#empty";
      std::string out;
      if (!s.links.empty()) out += "links#" + join_ids(s.links);
      if (!s.nodes.empty()) {
        if (!out.empty()) out += "|";
        out += "nodes#" + join_ids(s.nodes);
      }
      return out;
    }
  }
  return "?";
}

std::vector<FailureScenario> all_link_failures(const Graph& g) {
  std::vector<FailureScenario> out;
  out.reserve(g.num_links());
  for (LinkId l = 0; l < g.num_links(); ++l) out.push_back(FailureScenario::link(l));
  return out;
}

std::vector<FailureScenario> all_node_failures(const Graph& g) {
  std::vector<FailureScenario> out;
  out.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) out.push_back(FailureScenario::node(v));
  return out;
}

std::vector<FailureScenario> sample_k_link_failures(const Graph& g, int k,
                                                    std::size_t count, Rng& rng) {
  if (k < 1) throw std::invalid_argument("sample_k_link_failures: k must be >= 1");
  if (g.num_links() < static_cast<std::size_t>(k))
    throw std::invalid_argument("sample_k_link_failures: need >= k links");
  std::vector<FailureScenario> out;
  out.reserve(count);
  std::vector<LinkId> draw(static_cast<std::size_t>(k));
  std::size_t guard = 64 * count + 64;
  while (out.size() < count) {
    if (guard-- == 0)
      throw std::runtime_error("sample_k_link_failures: sampling stalled");
    for (LinkId& l : draw) l = static_cast<LinkId>(rng.uniform_index(g.num_links()));
    std::sort(draw.begin(), draw.end());
    if (std::adjacent_find(draw.begin(), draw.end()) != draw.end()) continue;
    FailureScenario s = FailureScenario::compound(draw);
    if (std::find(out.begin(), out.end(), s) != out.end()) continue;
    out.push_back(std::move(s));
  }
  return out;
}

void build_alive_mask(const Graph& g, const FailureScenario& s,
                      std::vector<std::uint8_t>& mask) {
  mask.assign(g.num_arcs(), 1);
  for_each_failed_arc(g, s, [&](ArcId a) { mask[a] = 0; });
}

std::span<const NodeId> skipped_nodes(const FailureScenario& s) {
  switch (s.kind) {
    case FailureScenario::Kind::kNode:
      return {&s.id, 1};
    case FailureScenario::Kind::kCompound:
      return s.nodes;
    default:
      return {};
  }
}

}  // namespace dtr
