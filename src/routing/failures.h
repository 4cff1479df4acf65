#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dtr {

/// A failure scenario. Link failures take down both directed arcs of a
/// physical link (fiber-cut semantics); node failures take down every arc
/// incident to the node AND remove the traffic it sources/sinks. Compound
/// scenarios generalize both to ANY set of physical links and nodes failing
/// together — link pairs (Sec. V-F footnote: "other failure patterns, e.g.,
/// multiple link failures"), k-link failures, shared-risk link groups
/// (conduit cuts) and correlated outages all use this one representation.
struct FailureScenario {
  enum class Kind : std::uint8_t { kNone, kLink, kNode, kCompound };
  Kind kind = Kind::kNone;
  std::uint32_t id = 0;  ///< LinkId or NodeId depending on kind
  /// kCompound payload; canonical form (what `compound` produces) is sorted
  /// ascending and deduplicated, so operator== is set equality.
  std::vector<LinkId> links;
  std::vector<NodeId> nodes;

  static FailureScenario none() { return {}; }
  static FailureScenario link(LinkId l) {
    FailureScenario s;
    s.kind = Kind::kLink;
    s.id = l;
    return s;
  }
  static FailureScenario node(NodeId v) {
    FailureScenario s;
    s.kind = Kind::kNode;
    s.id = v;
    return s;
  }
  /// Canonical compound scenario: both element sets sorted and deduplicated.
  static FailureScenario compound(std::vector<LinkId> links,
                                  std::vector<NodeId> nodes = {});

  bool operator==(const FailureScenario&) const = default;
};

std::string to_string(const FailureScenario& s);

/// All single-link failure scenarios (one per physical link).
std::vector<FailureScenario> all_link_failures(const Graph& g);

/// All single-node failure scenarios.
std::vector<FailureScenario> all_node_failures(const Graph& g);

/// `count` distinct random k-link compound failure scenarios (canonical,
/// links sorted ascending). Draw pattern: k uniform link indices per
/// attempt, the attempt rejected on any duplicate, the combination rejected
/// if already sampled — for k == 2 this is the exact RNG stream of the
/// historical dual-link sampler. Requires k >= 1 and >= k physical links
/// (std::invalid_argument otherwise); throws std::runtime_error when
/// sampling stalls (count close to the number of combinations).
std::vector<FailureScenario> sample_k_link_failures(const Graph& g, int k,
                                                    std::size_t count, Rng& rng);

/// Invokes `on_link(LinkId)` / `on_node(NodeId)` for every element the
/// scenario takes down, in deterministic order (links before nodes, each in
/// stored order). The single dispatch point over scenario kinds: every
/// consumer — mask building, removed-arc collection, catalogs, probability
/// models — sees kLink, kNode and kCompound through the same compound
/// representation.
template <typename LinkFn, typename NodeFn>
void for_each_failed_element(const FailureScenario& s, LinkFn&& on_link,
                             NodeFn&& on_node) {
  switch (s.kind) {
    case FailureScenario::Kind::kNone:
      return;
    case FailureScenario::Kind::kLink:
      on_link(static_cast<LinkId>(s.id));
      return;
    case FailureScenario::Kind::kNode:
      on_node(static_cast<NodeId>(s.id));
      return;
    case FailureScenario::Kind::kCompound:
      for (const LinkId l : s.links) on_link(l);
      for (const NodeId v : s.nodes) on_node(v);
      return;
  }
}

/// Invokes `fn(ArcId)` for every arc the scenario takes down: both arcs of
/// each failed link, then every arc incident to each failed node, in
/// deterministic order. Validates element ids against `g`.
template <typename Fn>
void for_each_failed_arc(const Graph& g, const FailureScenario& s, Fn&& fn) {
  for_each_failed_element(
      s,
      [&](LinkId l) {
        if (l >= g.num_links()) throw std::out_of_range("for_each_failed_arc: link id");
        for (const ArcId a : g.link_arcs(l)) fn(a);
      },
      [&](NodeId v) {
        if (v >= g.num_nodes()) throw std::out_of_range("for_each_failed_arc: node id");
        for (const ArcId a : g.out_arcs(v)) fn(a);
        for (const ArcId a : g.in_arcs(v)) fn(a);
      });
}

/// Builds the arc liveness mask for a scenario (1 = alive).
void build_alive_mask(const Graph& g, const FailureScenario& s,
                      std::vector<std::uint8_t>& mask);

/// The nodes whose sourced/sunk traffic must be ignored under this scenario
/// (empty except for node failures and compound scenarios listing nodes).
/// The span aliases `s` and is invalidated with it.
std::span<const NodeId> skipped_nodes(const FailureScenario& s);

/// Membership test for the (tiny) skip sets `skipped_nodes` returns; a
/// linear scan beats any set structure at these sizes.
inline bool is_skipped(std::span<const NodeId> skip, NodeId v) {
  for (const NodeId u : skip)
    if (u == v) return true;
  return false;
}

}  // namespace dtr
