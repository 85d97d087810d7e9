// Isolated single-thread layer pass: one attestation's work replayed
// through each layer's public functions, timed at the boundaries the
// benchmark can see from outside the program.
//
//   core   CpuProver::respond and Verifier::verify, whole calls
//   cpu    Machine::run of the honest SWAT program, minus its PUF port
//   alupuf PufDevice queries (prover) and PufEmulator queries (verifier),
//          per PUF() call
//   swat   compute_checksum on the verifier side, minus its PUF callbacks
#include "layers.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "core/protocol.hpp"
#include "core/puf_adapter.hpp"
#include "cpu/machine.hpp"
#include "support/rng.hpp"
#include "swat/checksum.hpp"

namespace verdictbench {

namespace core = pufatt::core;

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Forwards to the device port and accumulates the time spent in it.
class TimedPort final : public pufatt::cpu::PufPort {
 public:
  explicit TimedPort(pufatt::cpu::PufPort& inner) : inner_(inner) {}
  void start() override {
    const auto t0 = Clock::now();
    inner_.start();
    busy_us += us_since(t0);
  }
  void feed(std::uint64_t challenge, double cycle_ps) override {
    const auto t0 = Clock::now();
    inner_.feed(challenge, cycle_ps);
    busy_us += us_since(t0);
  }
  std::uint32_t finish(std::vector<std::uint32_t>& helper_words) override {
    const auto t0 = Clock::now();
    const std::uint32_t z = inner_.finish(helper_words);
    busy_us += us_since(t0);
    ++calls;
    return z;
  }
  double busy_us = 0.0;
  std::size_t calls = 0;

 private:
  pufatt::cpu::PufPort& inner_;
};

/// The honest prover's memory image, laid out as CpuProver lays it out.
std::vector<std::uint32_t> honest_memory(const core::EnrollmentRecord& record) {
  const auto& profile = record.profile;
  const std::size_t helper_capacity =
      static_cast<std::size_t>(profile.swat.rounds / profile.swat.puf_interval) *
      8;
  const std::size_t copy_addr = profile.layout.helper_addr + helper_capacity + 64;
  std::vector<std::uint32_t> memory(copy_addr + profile.swat.attest_words + 256,
                                    0);
  for (std::size_t i = 0; i < record.enrolled_image.size(); ++i) {
    memory[i] = record.enrolled_image[i];
  }
  return memory;
}

}  // namespace

LayerPass isolated_pass(const std::vector<const OwnedDevice*>& devices,
                        const pufatt::ecc::ReedMuller1& code, double budget_s,
                        std::uint64_t seed) {
  if (devices.empty()) throw std::invalid_argument("layer pass: no devices");
  // Verifiers and emulators hold pointers into themselves: never move them.
  std::vector<std::unique_ptr<core::Verifier>> verifiers;
  std::vector<std::unique_ptr<pufatt::alupuf::PufEmulator>> emulators;
  std::vector<std::vector<std::uint32_t>> memories;
  for (const OwnedDevice* d : devices) {
    verifiers.push_back(std::make_unique<core::Verifier>(d->record, code));
    emulators.push_back(std::make_unique<pufatt::alupuf::PufEmulator>(
        d->record.profile.puf_config.width, d->record.model, code,
        d->record.profile.puf_config.layout));
    memories.push_back(honest_memory(d->record));
  }

  std::vector<double> prover_us, verify_us, swat_self_us, cpu_self_us;
  double emulate_us = 0.0, query_us = 0.0;
  double emulate_calls = 0.0, query_calls = 0.0, cycles = 0.0;
  LayerPass pass;
  pufatt::support::Xoshiro256pp rng(seed);
  const auto deadline = Clock::now() + std::chrono::duration<double>(budget_s);
  std::size_t round = 0;
  while (prover_us.size() < 8 || Clock::now() < deadline) {
    const std::size_t d = round % devices.size();
    const OwnedDevice& owned = *devices[d];
    const auto& profile = owned.record.profile;
    const core::AttestationRequest request = verifiers[d]->make_request(rng);

    // core: one honest prover reply.
    const std::uint64_t prover_seed = rng.next();
    core::CpuProver prover(*owned.device, owned.record,
                           core::CpuProver::Variant::kHonest, prover_seed);
    auto t0 = Clock::now();
    const auto reply = prover.respond(request);
    prover_us.push_back(us_since(t0));
    cycles += static_cast<double>(reply.cycles);

    // cpu + alupuf (device side): the same run with a timed PUF port, set
    // up as CpuProver sets it up and seeded alike, so it must reproduce
    // the prover's reply.
    {
      pufatt::support::Xoshiro256pp port_rng(prover_seed);
      core::DevicePufPort device_port(*owned.device,
                                      pufatt::variation::Environment::nominal(),
                                      port_rng);
      TimedPort port(device_port);
      pufatt::cpu::Machine machine(memories[d].size());
      machine.load(memories[d], 0);
      machine.set_clock_mhz(profile.base_clock_mhz);
      machine.set_mem(profile.layout.seed_addr,
                      core::seed_from_nonce(request.nonce));
      machine.attach_puf(&port);
      t0 = Clock::now();
      const auto run = machine.run(10'000'000'000ULL);
      const double run_us = us_since(t0);
      if (!run.halted) throw std::runtime_error("layer pass: prover did not halt");
      bool same = run.cycles == reply.cycles;
      for (unsigned i = 0; i < 8; ++i) {
        same = same && machine.mem(profile.layout.result_addr + i) ==
                           reply.response.checksum[i];
      }
      if (!same) {
        throw std::runtime_error(
            "layer pass: the timed prover run differs from CpuProver::respond");
      }
      cpu_self_us.push_back(run_us - port.busy_us);
      query_us += port.busy_us;
      query_calls += static_cast<double>(port.calls);
    }

    // core (verifier side): the whole verify call.
    t0 = Clock::now();
    const auto verdict =
        verifiers[d]->verify(request, reply.response, reply.compute_us);
    verify_us.push_back(us_since(t0));
    switch (verdict.status) {
      case core::VerifyStatus::kAccepted: break;
      case core::VerifyStatus::kPufReconstructionFailed:
        ++pass.reject_reconstruction;
        break;
      case core::VerifyStatus::kChecksumMismatch: ++pass.reject_checksum; break;
      case core::VerifyStatus::kTimeExceeded: ++pass.reject_time; break;
    }
    ++pass.verdicts;

    // swat + alupuf (verifier side): the checksum recompute with timed
    // emulator callbacks.
    {
      std::size_t cursor = 0;
      double weighted = 0.0;
      const auto emulate = core::emulator_query(
          *emulators[d], reply.response.helper_words, cursor, &weighted);
      double callback_us = 0.0;
      std::size_t calls = 0;
      const pufatt::swat::PufQuery timed =
          [&](const std::array<std::uint64_t, 8>& challenges) {
            const auto c0 = Clock::now();
            auto z = emulate(challenges);
            callback_us += us_since(c0);
            ++calls;
            return z;
          };
      t0 = Clock::now();
      (void)pufatt::swat::compute_checksum(owned.record.enrolled_image,
                                           core::seed_from_nonce(request.nonce),
                                           profile.swat, timed);
      swat_self_us.push_back(us_since(t0) - callback_us);
      emulate_us += callback_us;
      emulate_calls += static_cast<double>(calls);
    }
    ++round;
  }

  const double n = static_cast<double>(round);
  pass.metrics["core.prover_us_p50"] = median(prover_us);
  pass.metrics["core.verify_us_p50"] = median(verify_us);
  pass.metrics["cpu.run_us_p50"] = median(cpu_self_us);
  pass.metrics["cpu.cycles_per_verdict"] = cycles / n;
  pass.metrics["alupuf.device_query_us_per_call"] =
      query_calls > 0 ? query_us / query_calls : 0.0;
  pass.metrics["alupuf.emulate_us_per_call"] =
      emulate_calls > 0 ? emulate_us / emulate_calls : 0.0;
  pass.metrics["alupuf.puf_calls_per_verdict"] = emulate_calls / n;
  pass.metrics["swat.self_us_p50"] = median(swat_self_us);
  return pass;
}

}  // namespace verdictbench
