// Canonical design rendering and content-addressed digesting.
//
// Several subsystems need one answer to "are these two designs the same
// certification problem?": the validation campaign's shrinker must dump
// repros that parse back to exactly the design it validated, and the
// certification service (src/serve) keys its cache by design content.
// Both go through the noc/io text format, which is the only
// representation that is independent of in-memory construction order —
// routes are stored as link:vc pairs, so channel numbering (which
// depends on the order VCs were added) never leaks into the text.
//
// Two canonicalization strengths live here:
//
//   * IoCanonicalize — the text round trip alone. Preserves flow order
//     (and therefore round-robin arbitration order), which is what a
//     simulation repro must keep. Hoisted from valid/shrink.
//   * CanonicalizeDesign — what the round trip gives after a canonical
//     flow sort, built in memory with no parse. Certification (CDG
//     acyclicity, the topological-order certificate) is a property of
//     the route *set*, not the flow declaration order, so designs
//     differing only in flow order are the same problem and must digest
//     identically. This is the cache key form.
//
// CanonicalDesignDigest hashes the canonical text together with the
// semantically relevant removal options, so one primitive defines the
// cache identity for valid/ and serve/ alike.
//
// The canonical form is two permutations of an in-memory design, and
// both are exported so a caller holding a live design can reach it
// without the text round trip: CanonicalFlowOrder (the flow sort) and
// CanonicalChannelOrder (the link-major channel numbering the parse
// builds). CanonicalizeDesign applies both and renders the text once; a
// session publishes each epoch through them without building the design
// (serve/session.h). The text round trip,
// ReadDesign(DesignText(d, CanonicalFlowOrder(d))) re-rendering to the
// text it read, is the oracle both are checked against: in
// tests/test_canonical.cpp, in bench_removal's generate rows, and in
// every served request under RemovalOptions::paranoid_validation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "deadlock/removal.h"
#include "noc/design.h"

namespace nocdr {

/// Text round trip through noc/io: the parsed-back design is what a
/// dump consumer will actually reconstruct. Channel ids may be
/// renumbered by the round trip; flow order is preserved.
NocDesign IoCanonicalize(const NocDesign& design);

/// True when the io round trip reproduces \p design exactly (identical
/// text implies identical channel numbering, so identical simulation).
bool IsIoStable(const NocDesign& design);

/// A design in canonical form: flows sorted by (src, dst, bandwidth as
/// the text stores it, route as link:vc pairs), each bandwidth as the
/// text stores it, and channels numbered link-major, so \p design is
/// what any consumer of \p text reconstructs. The sort never changes the
/// route set, so the certificate of \p design is the certificate of the
/// original up to flow renaming.
struct CanonicalDesign {
  NocDesign design;
  std::string text;
};

/// Canonicalizes \p design with no parse: the flows in CanonicalFlowOrder
/// with their bandwidths as the text stores them (TextBandwidth), the
/// channels renumbered link-major when removal appended VCs out of link
/// order (else the topology as it is), then Validate and one render for
/// \p text. An empty design name becomes "unnamed", as the text writes
/// it. Equal, text and design, to the text round trip
/// ReadDesign(DesignText(design, CanonicalFlowOrder(design))), which
/// stays the oracle, and throws InvalidModelError where that round trip
/// throws: on a design, switch or core name that is not one text token
/// (IsTextToken), two switches or two cores of one name, or a bandwidth
/// that is not finite. Deterministic; idempotent (canonicalizing the
/// result, or the parse of its text, returns identical text).
CanonicalDesign CanonicalizeDesign(const NocDesign& design);

/// The flow ids of \p design in canonical order: ascending (src, dst,
/// bandwidth as the text stores it, route as link:vc pairs), ties kept
/// in id order. The sort CanonicalizeDesign applies; DesignText(design,
/// order) renders it.
std::vector<FlowId> CanonicalFlowOrder(const NocDesign& design);

/// A run of flows tied on (src, dst, bandwidth as the text stores it):
/// flow ids [begin, end).
struct FlowRun {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The runs of two or more flows of \p design tied on (src, dst,
/// bandwidth as the text stores it), ascending. \p design's flows must
/// already be in canonical order on those keys, as PermuteFlows(d,
/// CanonicalFlowOrder(d)) leaves them; throws InvalidModelError when
/// they are not.
std::vector<FlowRun> TiedFlowRuns(const NocDesign& design);

/// CanonicalFlowOrder(design) for a design whose flows are in canonical
/// order on (src, dst, bandwidth as the text stores it) with the tied
/// runs \p tied_runs: each run stable-sorted by route, the rest in id
/// order, with no bandwidth rendered. Re-routes keep the runs, so a
/// design that only changes routes (a session, serve/session.h) takes
/// its runs once and re-sorts only within them.
std::vector<FlowId> CanonicalFlowOrder(const NocDesign& design,
                                       std::span<const FlowRun> tied_runs);

/// \p design with its flows (and their routes) permuted into \p order:
/// flow i of the result is flow order[i] of \p design. Topology, cores
/// and attachment are copied unchanged, so every id except FlowId
/// survives.
NocDesign PermuteFlows(const NocDesign& design,
                       std::span<const FlowId> order);

/// The channels of \p topology in link-major order: link 0's channels
/// in VC order, then link 1's, and so on. Entry k is the channel that
/// ReadDesign(DesignText(design)) numbers k, because the text stores
/// each route hop as link:vc and the parse adds a link's VCs with the
/// link. The two numberings differ once removal has appended VCs.
std::vector<ChannelId> CanonicalChannelOrder(const TopologyGraph& topology);

/// Mixes the semantically relevant removal options into \p h:
/// cycle_policy, direction_policy, duplication and max_iterations.
void DigestRemovalOptions(std::uint64_t& h, const RemovalOptions& options);

/// Content-addressed identity of one certification problem: FNV-1a over
/// the canonical text of \p design plus the semantically relevant
/// fields of \p options and whether treatment runs at all. Stable under
/// flow reordering, io round trips, comments/whitespace in the source
/// text and channel renumbering; distinct for distinct route sets,
/// topologies, bandwidths or option values.
std::uint64_t CanonicalDesignDigest(const NocDesign& design,
                                    const RemovalOptions& options,
                                    bool treat = true);

/// As above, but over an already-canonicalized text (avoids repeating
/// the canonicalization when the caller holds a CanonicalDesign).
std::uint64_t CanonicalTextDigest(const std::string& canonical_text,
                                  const RemovalOptions& options,
                                  bool treat = true);

}  // namespace nocdr
