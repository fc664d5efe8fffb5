// Shared fixtures: the paper's worked example (Figures 1-4, Table 1) and
// parameterizable synthetic designs used across the test suite.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "noc/design.h"
#include "synth/route_builder.h"
#include "util/rng.h"

namespace nocdr::testing {

/// Channels of interest in the paper example, by their Figure 1 names.
struct PaperExample {
  NocDesign design;
  LinkId l1, l2, l3, l4;
  ChannelId c1, c2, c3, c4;  // VC 0 of each link
  FlowId f1, f2, f3, f4;
};

/// Builds the example of Figures 1-2: four switches in a unidirectional
/// ring (L1: SW1->SW2, L2: SW2->SW3, L3: SW3->SW4, L4: SW4->SW1) and four
/// flows with routes R1={L1,L2,L3}, R2={L3,L4}, R3={L4,L1}, R4={L1,L2}.
/// The CDG is the 4-cycle L1->L2->L3->L4->L1.
inline PaperExample MakePaperExample() {
  PaperExample ex;
  NocDesign& d = ex.design;
  d.name = "paper_fig1";
  const SwitchId sw1 = d.topology.AddSwitch("SW1");
  const SwitchId sw2 = d.topology.AddSwitch("SW2");
  const SwitchId sw3 = d.topology.AddSwitch("SW3");
  const SwitchId sw4 = d.topology.AddSwitch("SW4");
  ex.l1 = d.topology.AddLink(sw1, sw2);
  ex.l2 = d.topology.AddLink(sw2, sw3);
  ex.l3 = d.topology.AddLink(sw3, sw4);
  ex.l4 = d.topology.AddLink(sw4, sw1);
  ex.c1 = *d.topology.FindChannel(ex.l1, 0);
  ex.c2 = *d.topology.FindChannel(ex.l2, 0);
  ex.c3 = *d.topology.FindChannel(ex.l3, 0);
  ex.c4 = *d.topology.FindChannel(ex.l4, 0);

  // One source and one sink core per flow, placed on the route endpoints.
  struct Spec {
    SwitchId src;
    SwitchId dst;
    std::vector<ChannelId> route;
  };
  const std::vector<Spec> specs = {
      {sw1, sw4, {ex.c1, ex.c2, ex.c3}},  // F1
      {sw3, sw1, {ex.c3, ex.c4}},         // F2
      {sw4, sw2, {ex.c4, ex.c1}},         // F3
      {sw1, sw3, {ex.c1, ex.c2}},         // F4
  };
  d.routes.Resize(specs.size());
  std::vector<FlowId> flows;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CoreId src = d.traffic.AddCore("src" + std::to_string(i + 1));
    const CoreId dst = d.traffic.AddCore("dst" + std::to_string(i + 1));
    d.attachment.push_back(specs[i].src);
    d.attachment.push_back(specs[i].dst);
    const FlowId f = d.traffic.AddFlow(src, dst, 100.0);
    d.routes.SetRoute(f, specs[i].route);
    flows.push_back(f);
  }
  ex.f1 = flows[0];
  ex.f2 = flows[1];
  ex.f3 = flows[2];
  ex.f4 = flows[3];
  d.Validate();
  return ex;
}

/// Random connected design: switches on a bidirectional ring plus random
/// chords, random core placement, random flows routed by BFS shortest
/// path. Deterministic in \p seed. Used by the property suites.
NocDesign MakeRandomDesign(std::uint64_t seed, std::size_t switches = 8,
                           std::size_t cores = 12, std::size_t flows = 20);

/// \p design plus a twin of every flow with an even id: same cores,
/// same bandwidth, same route. The twins tie on (src, dst, bandwidth),
/// so the canonical flow sort (util/canonical.h) breaks the tie on the
/// route, and a re-route that moves one twin flips the order.
NocDesign WithTiedTwins(NocDesign design);

/// The family's next-hop table for \p spec filled pair by pair, the way
/// the generators built it before they routed by rule: an explicit table
/// for gen::BuildFamilyTopology(spec).topology with every column
/// stored. The oracle the rule-backed tables are held to.
NextHopTable ReferenceTable(const gen::GeneratorSpec& spec);

/// The members of one flat JSON object, keyed by name, each value as
/// text: strings quoted, integers exact, other numbers via
/// std::to_string. Lets a test pin a row's JSON whatever its key order.
std::map<std::string, std::string> JsonMembers(const std::string& json);

}  // namespace nocdr::testing
