#include "scenarios/srlg.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/cli.h"
#include "util/json.h"

namespace dtr {

namespace {

std::string trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return std::string(s.substr(begin, end - begin + 1));
}

}  // namespace

std::vector<SrlgGroup> parse_srlg(std::istream& in) {
  std::vector<SrlgGroup> groups;
  SrlgGroup* group = nullptr;
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& message) -> void {
    throw std::runtime_error("srlg line " + std::to_string(lineno) + ": " + message);
  };
  const auto parse_weight = [&](const std::string& v) {
    std::size_t pos = 0;
    double out = 0.0;
    try {
      out = std::stod(v, &pos);
    } catch (const std::exception&) {
      fail("bad weight: " + v);
    }
    if (pos != v.size() || !std::isfinite(out) || out < 0.0) fail("bad weight: " + v);
    return out;
  };
  const auto parse_ids = [&](const std::string& v) {
    std::vector<std::uint32_t> ids;
    std::istringstream tokens(v);
    std::string token;
    while (tokens >> token) {
      // Whole token, no minus sign, and no wrap into a valid 32-bit id;
      // srlg_scenario_set checks the id against the graph.
      const std::optional<std::uint64_t> id = cli::parse_u64(token);
      if (!id || *id > std::numeric_limits<std::uint32_t>::max()) fail("bad id: " + token);
      ids.push_back(static_cast<std::uint32_t>(*id));
    }
    if (ids.empty()) fail("expected at least one id");
    return ids;
  };

  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line == "[srlg]") {
      groups.emplace_back();
      group = &groups.back();
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail("expected key = value or [srlg]");
    if (group == nullptr) fail("key before the first [srlg] section");
    const std::string key = trim(std::string_view(line).substr(0, eq));
    const std::string value = trim(std::string_view(line).substr(eq + 1));
    if (key.empty() || value.empty()) fail("expected key = value");

    if (key == "name") group->name = value;
    else if (key == "weight") group->weight = parse_weight(value);
    else if (key == "links") group->links = parse_ids(value);
    else if (key == "nodes") group->nodes = parse_ids(value);
    else fail("unknown srlg key: " + key);
  }

  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].name.empty()) groups[i].name = "srlg-" + std::to_string(i);
    if (groups[i].links.empty() && groups[i].nodes.empty()) {
      throw std::runtime_error("srlg group '" + groups[i].name +
                               "': no links or nodes");
    }
  }
  return groups;
}

void write_srlg(std::ostream& os, std::span<const SrlgGroup> groups) {
  const auto write_ids = [&](std::string_view key, std::span<const std::uint32_t> ids) {
    if (ids.empty()) return;
    os << key << " =";
    for (const std::uint32_t id : ids) os << " " << id;
    os << "\n";
  };
  for (std::size_t i = 0; i < groups.size(); ++i) {
    // The format cannot represent these names: '#' starts a comment on
    // parse, newlines would splice extra lines into the sidecar, an empty
    // value is rejected as malformed, and surrounding whitespace is trimmed
    // away. Refusing here keeps the parse(write(groups)) == groups identity
    // honest instead of silently corrupting the catalog.
    const std::string& name = groups[i].name;
    if (name.empty() || name.find_first_of("#\n\r") != std::string::npos ||
        name != trim(name))
      throw std::invalid_argument("write_srlg: unrepresentable group name '" + name +
                                  "'");
    if (i > 0) os << "\n";
    os << "[srlg]\n";
    os << "name = " << groups[i].name << "\n";
    // Shortest round-trip formatting so parse(write(groups)) == groups holds
    // for every representable weight.
    os << "weight = " << json_number(groups[i].weight) << "\n";
    write_ids("links", groups[i].links);
    write_ids("nodes", groups[i].nodes);
  }
}

std::vector<SrlgGroup> synthesize_geo_srlgs(const Graph& g,
                                            const GeoSrlgParams& params) {
  if (params.grid < 1)
    throw std::invalid_argument("synthesize_geo_srlgs: grid must be >= 1");
  if (g.num_links() == 0) return {};

  // Bounding box of the node positions (degenerate boxes collapse every
  // midpoint into cell 0, which is still deterministic).
  Point lo = g.position(0), hi = g.position(0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Point p = g.position(v);
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  const double extent_x = hi.x - lo.x;
  const double extent_y = hi.y - lo.y;

  const auto cell_of = [&](double value, double origin, double extent) -> int {
    if (extent <= 0.0) return 0;
    const auto cell = static_cast<int>((value - origin) / extent * params.grid);
    return std::clamp(cell, 0, params.grid - 1);
  };

  const auto cells = static_cast<std::size_t>(params.grid) *
                     static_cast<std::size_t>(params.grid);
  std::vector<std::vector<LinkId>> buckets(cells);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const Arc& arc = g.arc(g.link_arcs(l)[0]);
    const Point a = g.position(arc.src);
    const Point b = g.position(arc.dst);
    const Point mid{(a.x + b.x) / 2.0, (a.y + b.y) / 2.0};
    const int cx = cell_of(mid.x, lo.x, extent_x);
    const int cy = cell_of(mid.y, lo.y, extent_y);
    buckets[static_cast<std::size_t>(cy) * params.grid + cx].push_back(l);
  }

  std::vector<SrlgGroup> groups;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    if (buckets[cell].size() < params.min_links) continue;
    SrlgGroup group;
    const auto cx = cell % static_cast<std::size_t>(params.grid);
    const auto cy = cell / static_cast<std::size_t>(params.grid);
    group.name = "geo-" + std::to_string(cx) + "-" + std::to_string(cy);
    group.links = std::move(buckets[cell]);  // filled in ascending link order
    group.weight = params.weight;
    groups.push_back(std::move(group));
  }
  return groups;
}

ScenarioSet srlg_scenario_set(const Graph& g, std::span<const SrlgGroup> groups) {
  ScenarioSet set;
  for (const SrlgGroup& group : groups) {
    for (const LinkId l : group.links)
      if (l >= g.num_links())
        throw std::out_of_range("srlg group '" + group.name + "': link id " +
                                std::to_string(l));
    for (const NodeId v : group.nodes)
      if (v >= g.num_nodes())
        throw std::out_of_range("srlg group '" + group.name + "': node id " +
                                std::to_string(v));
    set.add(FailureScenario::compound(group.links, group.nodes), group.weight,
            group.name);
  }
  return set;
}

}  // namespace dtr
