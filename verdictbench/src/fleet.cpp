#include "fleet.hpp"

#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "core/distributed.hpp"
#include "core/protocol.hpp"
#include "service/verifier_pool.hpp"
#include "support/rng.hpp"

namespace verdictbench {

namespace core = pufatt::core;
namespace service = pufatt::service;

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  pufatt::support::Xoshiro256pp rng(a * 0x9E3779B97F4A7C15ULL ^ b);
  return rng.next();
}

std::size_t slice_size(const WorkloadSpec& spec) {
  return spec.devices / kSetupSlices;
}

std::size_t tampered_per_slice(const WorkloadSpec& spec) {
  return slice_size(spec) / kTamperEvery;
}

std::string slice_id(std::size_t slice, const char* kind, std::size_t index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "s%zu.%s-%zu", slice, kind, index);
  return buf;
}

/// "s<slice>." + the slice SimFleet's own id.
std::string honest_id(std::size_t slice, std::size_t index) {
  return slice_id(slice, "dev", index);
}

std::string tamper_id(std::size_t slice, std::size_t index) {
  return slice_id(slice, "tamper", index);
}

}  // namespace

std::vector<PoolJob> make_pool(const WorkloadSpec& spec, std::uint64_t seed) {
  pufatt::support::Xoshiro256pp rng(mix(seed, 0x9001));
  std::unordered_set<std::uint64_t> seen;
  auto unique_seed = [&] {
    for (;;) {
      const std::uint64_t v = rng.next();
      if (seen.insert(v).second) return v;
    }
  };
  const std::size_t per_slice = slice_size(spec);
  const std::size_t tampered = tampered_per_slice(spec);
  std::vector<PoolJob> pool;
  pool.reserve(spec.devices * spec.jobs_per_device);
  for (std::size_t s = 0; s < kSetupSlices; ++s) {
    for (std::size_t d = 0; d < per_slice; ++d) {
      const bool is_tampered = d >= per_slice - tampered;
      const std::string id = is_tampered
                                 ? tamper_id(s, d - (per_slice - tampered))
                                 : honest_id(s, d);
      for (std::size_t j = 0; j < spec.jobs_per_device; ++j) {
        PoolJob job;
        job.device_id = id;
        job.channel_seed = rng.next();
        job.rng_seed = unique_seed();
        job.tampered = is_tampered;
        job.slice = s;
        pool.push_back(std::move(job));
      }
    }
  }
  return pool;
}

OwnedDevice enroll_owned(const pufatt::ecc::ReedMuller1& code,
                         std::uint64_t chip_seed,
                         const std::vector<std::uint32_t>& image) {
  const auto profile = core::DistributedParams::small_profile();
  OwnedDevice owned;
  owned.device = std::make_unique<pufatt::alupuf::PufDevice>(
      profile.puf_config, chip_seed, code);
  owned.record = core::enroll(*owned.device, profile, image);
  return owned;
}

BenchFleet::BenchFleet(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed), code_(5) {
  if (spec.devices % kSetupSlices != 0 || tampered_per_slice(spec) == 0) {
    throw std::invalid_argument("workload device count does not slice");
  }
  slices_.resize(kSetupSlices);
  tampered_.reserve(kSetupSlices * tampered_per_slice(spec));
  routes_.reserve(spec.devices);
}

void BenchFleet::enroll_slice(std::size_t s) {
  const std::size_t tampered = tampered_per_slice(spec_);
  const std::size_t honest = slice_size(spec_) - tampered;
  slices_[s] = std::make_unique<pufatt::net::SimFleet>(honest, mix(seed_, s));
  for (std::size_t d = 0; d < honest; ++d) {
    routes_[honest_id(s, d)] =
        Route{s, pufatt::net::SimFleet::device_id(d), 0};
  }
  // Tampered chips run the slice's firmware image: the attack hides
  // malware in an image the verifier has enrolled.
  const auto image =
      slices_[s]->registry().load(pufatt::net::SimFleet::device_id(0))
          ->enrolled_image;
  for (std::size_t t = 0; t < tampered; ++t) {
    routes_[tamper_id(s, t)] = Route{s, std::string(), tampered_.size()};
    tampered_.push_back(
        enroll_owned(code_, mix(seed_, 0x7A3B0000 + s * tampered + t), image));
  }
}

std::shared_ptr<const core::EnrollmentRecord> BenchFleet::load(
    const std::string& device_id) const {
  const auto it = routes_.find(device_id);
  if (it == routes_.end()) return nullptr;
  const Route& route = it->second;
  if (route.local_id.empty()) {
    // Aliasing constructor: the record lives as long as the fleet.
    return std::shared_ptr<const core::EnrollmentRecord>(
        std::shared_ptr<const core::EnrollmentRecord>(),
        &tampered_[route.tamper_index].record);
  }
  return slices_[route.slice]->registry().load(route.local_id);
}

core::Responder BenchFleet::live_responder(const std::string& device_id,
                                           std::uint64_t rng_seed) const {
  const auto it = routes_.find(device_id);
  if (it == routes_.end()) return {};
  const Route& route = it->second;
  if (!route.local_id.empty()) {
    return slices_[route.slice]->responder_for(route.local_id, rng_seed);
  }
  const OwnedDevice& owned = tampered_[route.tamper_index];
  auto prover = std::make_shared<core::CpuProver>(
      *owned.device, owned.record, core::CpuProver::Variant::kRedirectMalware,
      rng_seed ^ 0xF00D);
  return [prover](const core::AttestationRequest& request) {
    auto outcome = prover->respond(request);
    return core::ProverReply{std::move(outcome.response), outcome.compute_us};
  };
}

void record_jobs(const BenchFleet& fleet, const std::vector<PoolJob>& pool,
                 const std::vector<std::size_t>& jobs, std::size_t workers,
                 std::vector<Truth>& truth,
                 std::vector<std::shared_ptr<const Transcript>>& transcripts) {
  // Server defaults for channel, slack and session policy, so a recorded
  // verdict is what the server's own pool computes for the same job.
  service::EmulatorCache cache(fleet, fleet.code(), 64);
  service::PoolConfig config;
  config.workers = workers;
  config.queue_capacity = jobs.size() + 1;
  std::mutex results_mutex;
  std::vector<service::JobResult> results(jobs.size());
  {
    service::VerifierPool recorder(
        cache, config, [&](const service::JobResult& result) {
          std::lock_guard<std::mutex> lock(results_mutex);
          results[result.tag] = result;
        });
    std::vector<std::shared_ptr<Transcript>> recorded(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const PoolJob& job = pool[jobs[k]];
      recorded[k] = std::make_shared<Transcript>();
      service::AttestationJob request;
      request.device_id = job.device_id;
      request.channel_seed = job.channel_seed;
      request.rng_seed = job.rng_seed;
      request.tag = k;
      request.responder =
          [inner = fleet.live_responder(job.device_id, job.rng_seed),
           out = recorded[k]](const core::AttestationRequest& r) {
            auto reply = inner(r);
            out->replies.emplace_back(r.nonce, reply);
            return reply;
          };
      if (!recorder.submit(std::move(request)).enqueued()) {
        throw std::runtime_error("recording pool refused a job");
      }
    }
    recorder.drain();
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      transcripts[jobs[k]] = std::move(recorded[k]);
    }
  }
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const auto& result = results[k];
    Truth& t = truth[jobs[k]];
    t.outcome = static_cast<int>(result.outcome);
    t.status = static_cast<int>(result.session.status);
    t.attempts = static_cast<std::uint32_t>(result.session.attempts.size());
    t.total_us = result.session.total_us;
    const auto last = result.session.last_verify();
    t.last_verify = last ? static_cast<int>(*last) : -1;
  }
}

core::Responder replay_responder(std::shared_ptr<const Transcript> transcript) {
  return [transcript](const core::AttestationRequest& request) {
    for (const auto& [nonce, reply] : transcript->replies) {
      if (nonce == request.nonce) return reply;
    }
    return core::ProverReply{};
  };
}

}  // namespace verdictbench
