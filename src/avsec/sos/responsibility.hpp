// Responsibility assignment across the MaaS value network (paper §VI):
// "ambiguous roles and responsibilities within large-scale value networks
// hinder comprehensive risk assessments, robust threat analyses, and
// effective traceability of cybersecurity requirements".
//
// The model: each subsystem carries security requirements; a governance
// model determines how reliably each requirement ends up with exactly one
// responsible stakeholder. Requirements nobody owns (gaps) or that two
// parties own with conflicting assumptions both degrade the subsystem's
// effective security posture — which feeds straight into the Fig. 9
// cascade analysis.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "avsec/sos/graph.hpp"

namespace avsec::sos {

struct SecurityRequirement {
  std::string id;
  std::string subsystem;          // node name in the SoS graph
  double posture_weight = 0.05;   // posture lost if unmet
};

enum class Ownership : std::uint8_t {
  kOwned,     // exactly one responsible stakeholder
  kGap,       // everyone assumed someone else covers it
  kConflict,  // two owners with unsynchronized implementations
};

/// How the partnership is organized.
struct GovernanceModel {
  std::string name;
  /// Probability a requirement falls through the cracks entirely.
  double gap_probability = 0.0;
  /// Probability a requirement is double-owned with conflicts.
  double conflict_probability = 0.0;
};

/// Reference governance models from the paper's §VI discussion.
GovernanceModel integrated_oem_governance();   // unified integration/release
GovernanceModel fragmented_retrofit_governance();  // Waymo/Chrysler-style

struct RequirementAssignment {
  SecurityRequirement requirement;
  Ownership ownership = Ownership::kOwned;
};

struct ResponsibilityAnalysis {
  std::vector<RequirementAssignment> assignments;
  int owned = 0;
  int gaps = 0;
  int conflicts = 0;

  double coverage() const {
    const int total = owned + gaps + conflicts;
    return total == 0 ? 1.0 : static_cast<double>(owned) / total;
  }
};

/// Assigns every requirement under the governance model (deterministic
/// per seed).
ResponsibilityAnalysis assign_responsibilities(
    const std::vector<SecurityRequirement>& requirements,
    const GovernanceModel& model, std::uint64_t seed);

/// The security-requirement catalog for the Fig. 9 reference architecture
/// (subsystem names match build_maas_reference with `n_vehicles`).
std::vector<SecurityRequirement> maas_requirement_catalog(int n_vehicles);

/// Applies the analysis to a graph: each gap subtracts its full posture
/// weight from the owning subsystem, each conflict half of it.
SosGraph degrade_postures(const SosGraph& graph,
                          const ResponsibilityAnalysis& analysis);

}  // namespace avsec::sos
