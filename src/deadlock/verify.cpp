#include "deadlock/verify.h"

#include <algorithm>
#include <deque>

#include "cdg/cdg.h"
#include "util/error.h"
#include "util/json.h"

namespace nocdr {

DeadlockCertificate CertifyDeadlockFreedom(const NocDesign& design) {
  return CertifyFromCdg(design, ChannelDependencyGraph::Build(design));
}

DeadlockCertificate CertifyFromCdg(const NocDesign& design,
                                   const ChannelDependencyGraph& cdg,
                                   std::span<const ChannelId> order) {
  const std::size_t n = cdg.VertexCount();
  Require(n == design.topology.ChannelCount(),
          "CertifyFromCdg: CDG vertex count does not match the design's "
          "channel count (graph out of sync)");
  const bool renumbered = !order.empty();
  // number[v]: the number vertex v is certified under.
  std::vector<std::size_t> number;
  if (renumbered) {
    Require(order.size() == n,
            "CertifyFromCdg: the channel order does not list every channel");
    number.assign(n, n);
    for (std::size_t k = 0; k < n; ++k) {
      const ChannelId c = order[k];
      Require(c.valid() && c.value() < n && number[c.value()] == n,
              "CertifyFromCdg: the channel order is not a permutation");
      number[c.value()] = k;
    }
  }
  const auto number_of = [&](ChannelId c) {
    return renumbered ? number[c.value()] : c.value();
  };
  DeadlockCertificate cert;

  // Kahn's algorithm over certified numbers, keeping the emission order
  // as the certificate. A vertex releases its successors in ascending
  // number, the order the renumbered design's CDG lists them in.
  std::vector<std::size_t> in_degree(n, 0);
  for (const CdgEdge& e : cdg.Edges()) {
    ++in_degree[number_of(e.to)];
  }
  std::deque<std::size_t> ready;
  for (std::size_t k = 0; k < n; ++k) {
    if (in_degree[k] == 0) {
      ready.push_back(k);
    }
  }
  std::vector<std::size_t> successors;
  while (!ready.empty()) {
    const std::size_t k = ready.front();
    ready.pop_front();
    cert.topological_order.emplace_back(k);
    successors.clear();
    for (const auto& ref :
         cdg.OutEdges(renumbered ? order[k] : ChannelId(k))) {
      successors.push_back(number_of(ref.to));
    }
    if (renumbered) {
      std::sort(successors.begin(), successors.end());
    }
    for (const std::size_t w : successors) {
      if (--in_degree[w] == 0) {
        ready.push_back(w);
      }
    }
  }
  cert.deadlock_free = cert.topological_order.size() == n;
  if (!cert.deadlock_free) {
    Require(!renumbered,
            "CertifyFromCdg: the CDG has a cycle, and a renumbered pass has "
            "no counterexample to report");
    cert.topological_order.clear();
    if (auto cycle = SmallestCycle(cdg)) {
      cert.counterexample = std::move(*cycle);
    }
  }
  return cert;
}

bool CheckCertificate(const NocDesign& design,
                      const DeadlockCertificate& certificate) {
  if (!certificate.deadlock_free) {
    return false;
  }
  const std::size_t n = design.topology.ChannelCount();
  if (certificate.topological_order.size() != n) {
    return false;
  }
  // rank[channel] = position in the claimed order; also detects
  // duplicates and out-of-range entries.
  constexpr std::size_t kUnranked = static_cast<std::size_t>(-1);
  std::vector<std::size_t> rank(n, kUnranked);
  for (std::size_t i = 0; i < n; ++i) {
    const ChannelId c = certificate.topological_order[i];
    if (!c.valid() || c.value() >= n || rank[c.value()] != kUnranked) {
      return false;
    }
    rank[c.value()] = i;
  }
  // Every consecutive pair of every route must step forward. This checks
  // the routes directly rather than trusting any CDG construction.
  for (std::size_t fi = 0; fi < design.traffic.FlowCount(); ++fi) {
    const Route& route = design.routes.RouteOf(FlowId(fi));
    for (std::size_t h = 0; h + 1 < route.size(); ++h) {
      if (rank[route[h].value()] >= rank[route[h + 1].value()]) {
        return false;
      }
    }
  }
  return true;
}

namespace {

void AppendChannelArray(std::string& out, const char* key,
                        const std::vector<ChannelId>& channels) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(channels[i].value());
  }
  out += ']';
}

std::vector<ChannelId> ReadChannelArray(const JsonValue& value) {
  std::vector<ChannelId> channels;
  channels.reserve(value.Items().size());
  for (const JsonValue& item : value.Items()) {
    channels.emplace_back(item.AsUint());
  }
  return channels;
}

}  // namespace

std::string CertificateToJson(const DeadlockCertificate& certificate) {
  std::string out = "{\"deadlock_free\":";
  out += certificate.deadlock_free ? "true" : "false";
  out += ',';
  AppendChannelArray(out, "topological_order",
                     certificate.topological_order);
  out += ',';
  AppendChannelArray(out, "counterexample", certificate.counterexample);
  out += '}';
  return out;
}

DeadlockCertificate CertificateFromJson(const std::string& json) {
  const JsonValue value = JsonValue::Parse(json);
  DeadlockCertificate cert;
  cert.deadlock_free = value.At("deadlock_free").AsBool();
  cert.topological_order = ReadChannelArray(value.At("topological_order"));
  cert.counterexample = ReadChannelArray(value.At("counterexample"));
  return cert;
}

}  // namespace nocdr
