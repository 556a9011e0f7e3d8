#include "avsec/sos/responsibility.hpp"

#include <algorithm>

namespace avsec::sos {

GovernanceModel integrated_oem_governance() {
  return GovernanceModel{"integrated OEM", 0.02, 0.03};
}

GovernanceModel fragmented_retrofit_governance() {
  // Retrofit partnerships with no unified integration/release process:
  // far more requirements fall between organizations.
  return GovernanceModel{"fragmented retrofit", 0.15, 0.20};
}

ResponsibilityAnalysis assign_responsibilities(
    const std::vector<SecurityRequirement>& requirements,
    const GovernanceModel& model, std::uint64_t seed) {
  core::Rng rng(seed);
  ResponsibilityAnalysis analysis;
  for (const auto& req : requirements) {
    RequirementAssignment a;
    a.requirement = req;
    const double roll = rng.uniform();
    if (roll < model.gap_probability) {
      a.ownership = Ownership::kGap;
      ++analysis.gaps;
    } else if (roll < model.gap_probability + model.conflict_probability) {
      a.ownership = Ownership::kConflict;
      ++analysis.conflicts;
    } else {
      a.ownership = Ownership::kOwned;
      ++analysis.owned;
    }
    analysis.assignments.push_back(std::move(a));
  }
  return analysis;
}

std::vector<SecurityRequirement> maas_requirement_catalog(int n_vehicles) {
  std::vector<SecurityRequirement> reqs;
  auto add = [&](const std::string& subsystem, const std::string& what,
                 double weight) {
    reqs.push_back(SecurityRequirement{subsystem + "/" + what, subsystem,
                                       weight});
  };
  for (const char* sub : {"maas-platform", "backend", "hub-infra"}) {
    add(sub, "api-authn", 0.08);
    add(sub, "secrets-mgmt", 0.08);
    add(sub, "patching", 0.05);
    add(sub, "logging-monitoring", 0.05);
  }
  for (int v = 0; v < n_vehicles; ++v) {
    const std::string p = "vehicle" + std::to_string(v) + "/";
    for (const std::string& sub :
         {p + "telematics", p + "passenger-os", p + "self-driving",
          p + "vehicle-os"}) {
      add(sub, "secure-boot", 0.08);
      add(sub, "bus-protection", 0.06);
      add(sub, "ota-signing", 0.08);
      add(sub, "idps", 0.05);
    }
  }
  return reqs;
}

SosGraph degrade_postures(const SosGraph& graph,
                          const ResponsibilityAnalysis& analysis) {
  // Accumulate posture loss per subsystem.
  std::map<std::string, double> loss;
  for (const auto& a : analysis.assignments) {
    if (a.ownership == Ownership::kGap) {
      loss[a.requirement.subsystem] += a.requirement.posture_weight;
    } else if (a.ownership == Ownership::kConflict) {
      loss[a.requirement.subsystem] += 0.5 * a.requirement.posture_weight;
    }
  }
  SosGraph out;
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    SosNode n = graph.node(static_cast<int>(i));
    const auto it = loss.find(n.name);
    if (it != loss.end()) {
      n.posture = std::max(0.0, n.posture - it->second);
    }
    out.add_node(std::move(n));
  }
  for (const auto& e : graph.edges()) {
    out.add_edge(e.from, e.to, e.exposure, e.kind);
  }
  return out;
}

}  // namespace avsec::sos
