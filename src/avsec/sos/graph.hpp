// System-of-systems dependency graph for the AD MaaS platform (paper §VI,
// Fig. 9) and Monte-Carlo attack-propagation analysis.
//
// Nodes carry a *security posture* (probability of resisting one
// compromise attempt); edges carry an *exposure* (probability an attacker
// on the source can traverse to the target: shared hardware, telematics
// link, API). Cascade risk = probability that a compromise starting at an
// entry point reaches safety-critical functions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/core/stats.hpp"

namespace avsec::sos {

struct SosNode {
  std::string name;
  int level = 0;  // 0 = whole platform ... 3 = in-vehicle function group
  double posture = 0.5;       // probability of resisting one attempt
  bool safety_critical = false;
  /// Per-round probability that a compromised node is recovered (incident
  /// response, re-imaging, failover). 0 = compromises are permanent, as in
  /// the original single-shot propagate() model.
  double recovery = 0.0;
};

struct SosEdge {
  int from = 0;
  int to = 0;
  double exposure = 0.5;  // traversal probability given `from` compromised
  std::string kind;       // "api", "telematics", "shared-hw", ...
};

class SosGraph {
 public:
  /// Adds a node; returns its id.
  int add_node(SosNode node);

  /// Adds a directed edge.
  void add_edge(int from, int to, double exposure, std::string kind = "api");

  int node_id(const std::string& name) const;  // -1 when absent
  const SosNode& node(int id) const { return nodes_.at(std::size_t(id)); }
  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<SosEdge>& edges() const { return edges_; }

  /// Neighbors reachable from `id`.
  std::vector<const SosEdge*> out_edges(int id) const;

 private:
  std::vector<SosNode> nodes_;
  std::vector<SosEdge> edges_;
  std::map<std::string, int> by_name_;
};

/// One Monte-Carlo trial outcome.
struct PropagationResult {
  std::vector<double> compromise_probability;  // per node id
  double safety_critical_reached = 0.0;  // P(any safety-critical node hit)
  double mean_compromised_nodes = 0.0;
};

/// Runs `trials` propagation trials from `entry` (the entry node is
/// compromised with probability (1 - its posture) per trial).
PropagationResult propagate(const SosGraph& graph, int entry,
                            std::size_t trials, std::uint64_t seed);

/// Round-based cascade with recovery: each round every compromised node
/// attempts to spread along its out-edges, then recovers with its
/// per-round recovery probability (recovered nodes can be re-compromised
/// later). The tension this quantifies is containment vs cascade: does
/// incident response outrun propagation, or does the compromise percolate
/// to safety-critical functions first?
struct CascadeTimeline {
  /// Mean number of compromised nodes after each round (index 0 = after
  /// the initial compromise attempt).
  std::vector<double> mean_compromised_per_round;
  double peak_mean_compromised = 0.0;
  /// P(any safety-critical node was compromised at any point).
  double safety_critical_ever = 0.0;
  /// Fraction of trials where the cascade fully died out within the
  /// horizon (zero compromised nodes).
  double contained_fraction = 0.0;
  /// Mean rounds until containment, among contained trials.
  double mean_rounds_to_containment = 0.0;
};

CascadeTimeline propagate_with_recovery(const SosGraph& graph, int entry,
                                        std::size_t rounds,
                                        std::size_t trials,
                                        std::uint64_t seed);

/// Returns a copy of `graph` with every node's recovery rate set.
SosGraph with_recovery(const SosGraph& graph, double recovery_rate);

/// Builds the Fig. 9 reference MaaS architecture with `n_vehicles`
/// level-1 autonomous vehicles. Returns the graph; well-known entry
/// points can be looked up by name:
///  "maas-platform", "backend", "hub-infra", "vehicle<i>/passenger-os",
///  "vehicle<i>/telematics", ...
SosGraph build_maas_reference(int n_vehicles = 3,
                              double baseline_posture = 0.7);

/// Hardening experiment: returns a copy of `graph` with `node`'s posture
/// raised to `new_posture`.
SosGraph with_hardened_node(const SosGraph& graph, const std::string& name,
                            double new_posture);

}  // namespace avsec::sos
