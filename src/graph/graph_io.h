#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "graph/graph.h"

namespace dtr {

/// Plain-text graph persistence and Graphviz export.
///
/// Text format (version 1, whitespace separated, '#' comments allowed):
///
///   dtr-graph 1
///   nodes <N>
///   node <id> <x> <y>            (N lines, ids 0..N-1 in order)
///   links <M>
///   link <u> <v> <capacity_mbps> <prop_delay_ms>   (M lines)
///
/// Only bidirectional links are serialized (the library's generators produce
/// nothing else); one-directional arcs are rejected on write.

void write_graph(std::ostream& os, const Graph& g);

/// Parses the format above. Throws std::runtime_error with a line-oriented
/// message on malformed input, and with a message naming an unreachable node
/// when the graph is not connected.
Graph read_graph(std::istream& is);

/// Graphviz (dot) export for visualization: undirected edges labelled with
/// "delay ms / capacity". Optional node names (size == num_nodes).
std::string to_dot(const Graph& g, std::span<const std::string> node_names = {});

}  // namespace dtr
