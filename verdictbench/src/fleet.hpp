// The benchmark's device fleet, wire-job pool and recorded transcripts.
//
// Devices are enrolled in equal slices so set-up can be timed several
// times per run.  Each slice is one net::SimFleet (the honest devices,
// exactly as `pufatt-cli serve` builds them) plus bench-owned "tampered"
// devices: genuine chips enrolled with the slice's image whose prover
// runs CpuProver::Variant::kRedirectMalware.  About one device in 16 is
// tampered; none of them may ever be accepted.
//
// The wire-job pool is a pure function of (workload, seed), so the load
// generator process derives it without any of the fleet.  Recording runs
// every pool job once through an in-process VerifierPool with the live
// prover, keeping each prover reply keyed by nonce: the results are the
// ground truth for the wire verdicts, and the replies are what the replay
// responder serves.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "alupuf/pipeline.hpp"
#include "common.hpp"
#include "core/enrollment.hpp"
#include "core/session.hpp"
#include "ecc/reed_muller.hpp"
#include "net/fleet.hpp"
#include "service/device_registry.hpp"
#include "service/emulator_cache.hpp"

namespace verdictbench {

inline constexpr std::size_t kSetupSlices = 4;
inline constexpr std::size_t kTamperEvery = 16;

struct PoolJob {
  std::string device_id;
  std::uint64_t channel_seed = 0;
  std::uint64_t rng_seed = 0;
  bool tampered = false;
  std::size_t slice = 0;
};

/// Deterministic job pool of a wire workload.
std::vector<PoolJob> make_pool(const WorkloadSpec& spec, std::uint64_t seed);

/// What the in-process run of one pool job produced.
struct Truth {
  int outcome = 0;          ///< service::JobOutcome
  int status = 0;           ///< core::SessionStatus
  std::uint32_t attempts = 0;
  double total_us = 0.0;
  int last_verify = -1;     ///< core::VerifyStatus of the last attempt, -1 none
};

/// Prover replies of one recorded session, in attempt order.
struct Transcript {
  std::vector<std::pair<std::uint64_t, pufatt::core::ProverReply>> replies;
};

/// A bench-owned enrolled device (tampered slots; store_crp; layer pass).
struct OwnedDevice {
  std::unique_ptr<pufatt::alupuf::PufDevice> device;
  pufatt::core::EnrollmentRecord record;
};

class BenchFleet : public pufatt::service::RegistryView {
 public:
  BenchFleet(const WorkloadSpec& spec, std::uint64_t seed);

  /// Enrolls slice `s` (its SimFleet and its tampered devices).  Not
  /// thread-safe against load(); call with the fleet otherwise idle.
  void enroll_slice(std::size_t s);

  std::shared_ptr<const pufatt::core::EnrollmentRecord> load(
      const std::string& device_id) const override;

  /// Live prover of a wire job: the slice's SimFleet responder for honest
  /// devices, a fresh redirect-malware CpuProver for tampered ones.
  pufatt::core::Responder live_responder(const std::string& device_id,
                                         std::uint64_t rng_seed) const;

  const pufatt::ecc::ReedMuller1& code() const { return code_; }
  const std::vector<OwnedDevice>& tampered() const { return tampered_; }

 private:
  struct Route {
    std::size_t slice = 0;
    std::string local_id;  ///< SimFleet id, or empty for a tampered device
    std::size_t tamper_index = 0;
  };

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  pufatt::ecc::ReedMuller1 code_;
  std::vector<std::unique_ptr<pufatt::net::SimFleet>> slices_;
  std::vector<OwnedDevice> tampered_;
  std::unordered_map<std::string, Route> routes_;
};

/// Enrolls one bench-owned device with the small protocol profile.
OwnedDevice enroll_owned(const pufatt::ecc::ReedMuller1& code,
                         std::uint64_t chip_seed,
                         const std::vector<std::uint32_t>& image);

/// Runs `jobs` (indices into `pool`) through an in-process VerifierPool
/// with recording live provers.  Fills truth[i] and transcripts[i].
void record_jobs(const BenchFleet& fleet, const std::vector<PoolJob>& pool,
                 const std::vector<std::size_t>& jobs, std::size_t workers,
                 std::vector<Truth>& truth,
                 std::vector<std::shared_ptr<const Transcript>>& transcripts);

/// Responder serving a recorded transcript by nonce, at the recorded
/// compute time.  An unknown nonce yields an empty reply, which fails
/// verification and so shows up as a divergence from ground truth.
pufatt::core::Responder replay_responder(
    std::shared_ptr<const Transcript> transcript);

}  // namespace verdictbench
