#include "graph/graph_io.h"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/connectivity.h"
#include "graph/topology.h"
#include "util/cli.h"

namespace dtr {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("read_graph: " + what);
}

/// Reads one non-empty, non-comment line.
bool next_content_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  // Round-trip exactness: doubles print with max_digits10 significant digits.
  const auto saved_precision = os.precision();
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "dtr-graph 1\n";
  os << "nodes " << g.num_nodes() << "\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    os << "node " << u << " " << g.position(u).x << " " << g.position(u).y << "\n";
  os << "links " << g.num_links() << "\n";
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto arcs = g.link_arcs(l);
    if (arcs.size() != 2)
      throw std::invalid_argument("write_graph: one-directional arcs not serializable");
    const Arc& a = g.arc(arcs.front());
    os << "link " << a.src << " " << a.dst << " " << a.capacity << " "
       << a.prop_delay_ms << "\n";
  }
  os.precision(saved_precision);
}

Graph read_graph(std::istream& is) {
  std::string line, word;
  if (!next_content_line(is, line)) fail("empty input");
  {
    std::istringstream ss(line);
    int version = 0;
    ss >> word >> version;
    if (word != "dtr-graph" || version != 1) fail("bad header: " + line);
  }
  if (!next_content_line(is, line)) fail("missing nodes header");
  std::size_t num_nodes = 0;
  {
    // Strict and capped like --nodes, before the graph allocates anything.
    std::istringstream ss(line);
    std::string count;
    ss >> word >> count;
    const std::optional<std::uint64_t> parsed = cli::parse_u64(count);
    if (word != "nodes" || !parsed) fail("bad nodes header: " + line);
    if (*parsed > static_cast<std::uint64_t>(kMaxTopologyNodes))
      fail("nodes must be <= " + std::to_string(kMaxTopologyNodes) + ": " + line);
    num_nodes = *parsed;
  }
  Graph g(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    if (!next_content_line(is, line)) fail("missing node line");
    std::istringstream ss(line);
    std::size_t id = 0;
    Point p;
    ss >> word >> id >> p.x >> p.y;
    if (word != "node" || ss.fail()) fail("bad node line: " + line);
    if (id != i) fail("node ids must be dense and in order: " + line);
    g.set_position(static_cast<NodeId>(id), p);
  }
  if (!next_content_line(is, line)) fail("missing links header");
  std::size_t num_links = 0;
  {
    std::istringstream ss(line);
    ss >> word >> num_links;
    if (word != "links" || ss.fail()) fail("bad links header: " + line);
  }
  for (std::size_t i = 0; i < num_links; ++i) {
    if (!next_content_line(is, line)) fail("missing link line");
    std::istringstream ss(line);
    std::size_t u = 0, v = 0;
    double capacity = 0.0, delay = 0.0;
    ss >> word >> u >> v >> capacity >> delay;
    if (word != "link" || ss.fail()) fail("bad link line: " + line);
    if (u >= num_nodes || v >= num_nodes) fail("link endpoint out of range: " + line);
    g.add_link(static_cast<NodeId>(u), static_cast<NodeId>(v), capacity, delay);
  }
  // Every SD pair must be routable: an unreachable node would be charged
  // as disconnected demand under every weight setting, not optimized.
  if (!is_connected(g)) {
    const std::vector<int> component = connected_components(g);
    const auto unreachable = std::find_if(component.begin(), component.end(),
                                          [](int c) { return c != 0; });
    fail("graph is not connected: node " +
         std::to_string(unreachable - component.begin()) + " is unreachable from node 0");
  }
  return g;
}

std::string to_dot(const Graph& g, std::span<const std::string> node_names) {
  if (!node_names.empty() && node_names.size() != g.num_nodes())
    throw std::invalid_argument("to_dot: node_names size mismatch");
  std::ostringstream os;
  os << "graph dtr {\n  node [shape=circle];\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    os << "  n" << u;
    if (!node_names.empty()) os << " [label=\"" << node_names[u] << "\"]";
    os << ";\n";
  }
  os.setf(std::ios::fixed);
  os.precision(1);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const Arc& a = g.arc(g.link_arcs(l).front());
    os << "  n" << a.src << " -- n" << a.dst << " [label=\"" << a.prop_delay_ms
       << "ms/" << a.capacity << "M\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace dtr
