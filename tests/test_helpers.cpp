#include "test_helpers.h"

#include <algorithm>
#include <deque>

#include "util/error.h"
#include "util/json.h"

namespace nocdr::testing {

NocDesign MakeRandomDesign(std::uint64_t seed, std::size_t switches,
                           std::size_t cores, std::size_t flows) {
  Rng rng(seed);
  NocDesign d;
  d.name = "random" + std::to_string(seed);

  std::vector<SwitchId> sw;
  for (std::size_t i = 0; i < switches; ++i) {
    sw.push_back(d.topology.AddSwitch());
  }
  // Bidirectional ring guarantees strong connectivity.
  for (std::size_t i = 0; i < switches; ++i) {
    d.topology.AddLink(sw[i], sw[(i + 1) % switches]);
    d.topology.AddLink(sw[(i + 1) % switches], sw[i]);
  }
  // Random chords make routing irregular.
  const std::size_t chords = switches / 2 + 1;
  for (std::size_t i = 0; i < chords; ++i) {
    const std::size_t a = rng.NextBelow(switches);
    const std::size_t b = rng.NextBelow(switches);
    if (a != b && !d.topology.FindLink(sw[a], sw[b])) {
      d.topology.AddLink(sw[a], sw[b]);
    }
  }

  std::vector<CoreId> core_ids;
  for (std::size_t i = 0; i < cores; ++i) {
    core_ids.push_back(d.traffic.AddCore());
    d.attachment.push_back(sw[rng.NextBelow(switches)]);
  }

  // BFS shortest path (hop count) per flow, deterministic tie-break by
  // link index.
  auto bfs_route = [&](SwitchId from, SwitchId to) {
    std::vector<LinkId> via(d.topology.SwitchCount());
    std::vector<bool> seen(d.topology.SwitchCount(), false);
    std::deque<SwitchId> queue{from};
    seen[from.value()] = true;
    while (!queue.empty()) {
      const SwitchId cur = queue.front();
      queue.pop_front();
      if (cur == to) {
        break;
      }
      for (LinkId l : d.topology.OutLinks(cur)) {
        const SwitchId next = d.topology.LinkAt(l).dst;
        if (!seen[next.value()]) {
          seen[next.value()] = true;
          via[next.value()] = l;
          queue.push_back(next);
        }
      }
    }
    Require(seen[to.value()], "MakeRandomDesign: disconnected");
    Route r;
    for (SwitchId cur = to; cur != from;
         cur = d.topology.LinkAt(via[cur.value()]).src) {
      r.push_back(*d.topology.FindChannel(via[cur.value()], 0));
    }
    std::reverse(r.begin(), r.end());
    return r;
  };

  std::size_t added = 0;
  while (added < flows) {
    const std::size_t a = rng.NextBelow(cores);
    const std::size_t b = rng.NextBelow(cores);
    if (a == b) {
      continue;
    }
    const FlowId f = d.traffic.AddFlow(
        core_ids[a], core_ids[b],
        static_cast<double>(rng.NextInRange(10, 200)));
    d.routes.Resize(d.traffic.FlowCount());
    const SwitchId from = d.attachment[a];
    const SwitchId to = d.attachment[b];
    d.routes.SetRoute(f, from == to ? Route{} : bfs_route(from, to));
    ++added;
  }
  d.Validate();
  return d;
}

std::map<std::string, std::string> JsonMembers(const std::string& json) {
  const JsonValue object = JsonValue::Parse(json);
  std::map<std::string, std::string> members;
  for (const auto& [key, value] : object.Members()) {
    std::string& text = members[key];
    switch (value.kind()) {
      case JsonValue::Kind::kString:
        text = "\"" + value.AsString() + "\"";
        break;
      case JsonValue::Kind::kBool:
        text = value.AsBool() ? "true" : "false";
        break;
      case JsonValue::Kind::kNumber:
        try {
          text = std::to_string(value.AsUint());
        } catch (const InvalidModelError&) {
          text = std::to_string(value.AsDouble());
        }
        break;
      default:
        text = "?";
    }
  }
  return members;
}

}  // namespace nocdr::testing
