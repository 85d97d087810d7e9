// Isolated single-thread pass over the attestation layers (layers.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet.hpp"

namespace verdictbench {

struct LayerPass {
  std::map<std::string, double> metrics;  ///< core/cpu/alupuf/swat layer metrics
  std::size_t verdicts = 0;               ///< honest verifies run
  std::size_t reject_reconstruction = 0;  ///< honest verifies not accepted, by reason
  std::size_t reject_checksum = 0;
  std::size_t reject_time = 0;
};

/// Runs honest attestations of `devices` round-robin for about `budget_s`
/// (at least 8), timing each layer.
LayerPass isolated_pass(const std::vector<const OwnedDevice*>& devices,
                        const pufatt::ecc::ReedMuller1& code, double budget_s,
                        std::uint64_t seed);

}  // namespace verdictbench
