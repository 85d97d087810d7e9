// Engineering micro-benchmarks (google-benchmark): throughput of every
// performance-relevant primitive.  Not a paper table — evidence that the
// simulation substrate sustains the million-challenge experiment sizes the
// paper's methodology requires.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cpu/assembler.hpp"
#include "swat/program.hpp"

#include "adversary/logreg.hpp"
#include "alupuf/pipeline.hpp"
#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "core/protocol.hpp"
#include "core/puf_adapter.hpp"
#include "ecc/bch.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/reed_muller.hpp"
#include "swat/checksum.hpp"
#include "timingsim/bitslice.hpp"

using namespace pufatt;

namespace {

const ecc::ReedMuller1& rm5() {
  static const ecc::ReedMuller1 code(5);
  return code;
}

alupuf::AluPufConfig puf32() {
  alupuf::AluPufConfig config;
  config.width = 32;
  return config;
}

void BM_AluPufRawEval(benchmark::State& state) {
  const alupuf::AluPuf puf(puf32(), 1);
  support::Xoshiro256pp rng(2);
  const auto env = variation::Environment::nominal();
  const auto challenge = support::BitVector::random(64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(puf.eval(challenge, env, rng));
  }
}
BENCHMARK(BM_AluPufRawEval);

void BM_PufDeviceQuery(benchmark::State& state) {
  const alupuf::PufDevice device(puf32(), 1, rm5());
  support::Xoshiro256pp rng(3);
  const auto env = variation::Environment::nominal();
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.query(++x, env, rng));
  }
}
BENCHMARK(BM_PufDeviceQuery);

void BM_PufDeviceQueryRaw(benchmark::State& state) {
  // The CPU PUF port's call: 8 raw challenges under the enrolled clock.
  const auto profile = core::DistributedParams::small_profile();
  const alupuf::PufDevice device(profile.puf_config, 1, rm5());
  const auto record = core::enroll(
      device, profile,
      core::make_enrolled_image(profile, std::vector<std::uint32_t>(600, 5)));
  const alupuf::ClockConstraint clock{1e6 / record.profile.base_clock_mhz,
                                      20.0};
  support::Xoshiro256pp rng(3);
  const auto env = variation::Environment::nominal();
  std::array<alupuf::Challenge, 8> challenges;
  for (auto& c : challenges) c = support::BitVector::random(64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.query_raw(challenges, env, rng, &clock));
  }
}
BENCHMARK(BM_PufDeviceQueryRaw);

void BM_PufEmulate(benchmark::State& state) {
  const alupuf::PufDevice device(puf32(), 1, rm5());
  const alupuf::PufEmulator emulator(32, device.export_model(), rm5());
  support::Xoshiro256pp rng(4);
  const auto out = device.query(42, variation::Environment::nominal(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emulator.emulate(42, out.helpers));
  }
}
BENCHMARK(BM_PufEmulate);

void BM_EmulatorQueryCall(benchmark::State& state) {
  // One core::emulator_query callback: the verifier's PUF() call inside
  // the SWAT recompute, the unit behind verdictbench's
  // alupuf.emulate_us_per_call.  An honest 8-word helper transcript,
  // replayed (the cursor is rewound every iteration).
  const alupuf::PufDevice device(puf32(), 1, rm5());
  const alupuf::PufEmulator emulator(32, device.export_model(), rm5());
  support::Xoshiro256pp rng(4);
  std::array<std::uint64_t, 8> challenges;
  std::array<alupuf::Challenge, 8> raw;
  for (std::size_t r = 0; r < 8; ++r) {
    challenges[r] = rng.next();
    raw[r] = core::challenge_from_u64(challenges[r]);
  }
  const auto out =
      device.query_raw(raw, variation::Environment::nominal(), rng);
  std::vector<std::uint32_t> transcript;
  for (const auto& h : out.helpers) {
    transcript.push_back(core::helper_to_word(h));
  }
  std::size_t cursor = 0;
  double weighted = 0.0;
  const auto query =
      core::emulator_query(emulator, transcript, cursor, &weighted);
  for (auto _ : state) {
    cursor = 0;
    benchmark::DoNotOptimize(query(challenges));
  }
}
BENCHMARK(BM_EmulatorQueryCall);

void BM_PufDeviceConstruct(benchmark::State& state) {
  // Enrolling a chip: everything but the die itself is shared per shape.
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const alupuf::PufDevice device(puf32(), ++seed, rm5());
    benchmark::DoNotOptimize(&device);
  }
}
BENCHMARK(BM_PufDeviceConstruct);

void BM_RmSoftDecode(benchmark::State& state) {
  support::Xoshiro256pp rng(5);
  std::vector<double> llr(32);
  for (auto& v : llr) v = rng.gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rm5().decode_soft_to_codeword(llr));
  }
}
BENCHMARK(BM_RmSoftDecode);

void BM_BchDecode(benchmark::State& state) {
  const ecc::BchCode code(8, 10);  // [255, 179] t=10
  support::Xoshiro256pp rng(6);
  auto word = code.encode(support::BitVector::random(code.k(), rng));
  for (int i = 0; i < 10; ++i) word.flip(rng.uniform_u64(code.n()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode_to_codeword(word));
  }
}
BENCHMARK(BM_BchDecode);

void BM_SyndromeHelperReproduce(benchmark::State& state) {
  const ecc::SyndromeHelper helper(rm5());
  support::Xoshiro256pp rng(7);
  const auto y = support::BitVector::random(32, rng);
  const auto h = helper.generate(y);
  auto ref = y;
  ref.flip(3);
  ref.flip(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(helper.reproduce(ref, h));
  }
}
BENCHMARK(BM_SyndromeHelperReproduce);

void BM_SyndromeGenerate(benchmark::State& state) {
  // Helper data for one raw response: RM(1,5)'s 26-row parity check.
  const ecc::SyndromeHelper helper(rm5());
  support::Xoshiro256pp rng(7);
  const auto y = support::BitVector::random(32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(helper.generate(y));
  }
}
BENCHMARK(BM_SyndromeGenerate);

void BM_SwatChecksumNative(benchmark::State& state) {
  swat::SwatParams params;
  params.rounds = 2048;
  params.attest_words = 4096;
  std::vector<std::uint32_t> image(params.attest_words, 0xABCD1234u);
  const auto puf = [](const std::array<std::uint64_t, 8>&) {
    return std::optional<std::uint32_t>{0x5555AAAAu};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(swat::compute_checksum(image, 99, params, puf));
  }
  state.SetItemsProcessed(state.iterations() * params.rounds);
}
BENCHMARK(BM_SwatChecksumNative);

void BM_Pr32SimulatedCycles(benchmark::State& state) {
  // Host-side throughput of the cycle-accurate PR32 interpreter.
  const auto params = swat::SwatParams{.rounds = 1024, .attest_words = 2048};
  const auto layout = swat::SwatLayout::standard(params);
  const auto program =
      cpu::assemble(swat::generate_swat_source(params, layout));
  struct Stub final : cpu::PufPort {
    void start() override {}
    void feed(std::uint64_t, double) override {}
    std::uint32_t finish(std::vector<std::uint32_t>& h) override {
      h.assign(8, 0);
      return 0;
    }
  } stub;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    cpu::Machine machine(8192);
    machine.load(program.words);
    machine.set_mem(layout.seed_addr, 1);
    machine.attach_puf(&stub);
    const auto result = machine.run(100'000'000);
    cycles += result.cycles;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_Pr32SimulatedCycles);

void BM_FullAttestationRoundTrip(benchmark::State& state) {
  auto profile = core::DeviceProfile::standard();
  profile.swat.rounds = 512;
  profile.swat.attest_words = 1024;
  profile.layout = swat::SwatLayout::standard(profile.swat);
  const alupuf::PufDevice device(profile.puf_config, 8, rm5());
  const auto record = core::enroll(
      device, profile,
      core::make_enrolled_image(profile, std::vector<std::uint32_t>(500, 3)));
  const core::Verifier verifier(record, rm5());
  core::CpuProver prover(device, record, core::CpuProver::Variant::kHonest, 9);
  support::Xoshiro256pp rng(10);
  for (auto _ : state) {
    const auto request = verifier.make_request(rng);
    const auto outcome = prover.respond(request);
    benchmark::DoNotOptimize(
        verifier.verify(request, outcome.response, 0.0));
  }
}
BENCHMARK(BM_FullAttestationRoundTrip);

void BM_CpuProverRespond(benchmark::State& state) {
  // The live prover of a served fleet device: the small profile's 512
  // SWAT rounds on the PR32 simulator with 8 PUF() calls.
  const auto profile = core::DistributedParams::small_profile();
  const alupuf::PufDevice device(profile.puf_config, 8, rm5());
  const auto record = core::enroll(
      device, profile,
      core::make_enrolled_image(profile, std::vector<std::uint32_t>(600, 3)));
  core::CpuProver prover(device, record, core::CpuProver::Variant::kHonest, 9);
  support::Xoshiro256pp rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prover.respond(core::AttestationRequest{rng.next()}));
  }
}
BENCHMARK(BM_CpuProverRespond);

void BM_VerifierColdBuild(benchmark::State& state) {
  // What an emulator-cache miss costs before its verdict: the Verifier
  // constructor plus the first verify on its cold emulator.
  auto profile = core::DeviceProfile::standard();
  profile.swat.rounds = 512;
  profile.swat.attest_words = 1024;
  profile.layout = swat::SwatLayout::standard(profile.swat);
  const alupuf::PufDevice device(profile.puf_config, 8, rm5());
  const auto record = core::enroll(
      device, profile,
      core::make_enrolled_image(profile, std::vector<std::uint32_t>(500, 3)));
  core::CpuProver prover(device, record, core::CpuProver::Variant::kHonest, 9);
  support::Xoshiro256pp rng(10);
  const auto request = core::Verifier(record, rm5()).make_request(rng);
  const auto outcome = prover.respond(request);
  for (auto _ : state) {
    const core::Verifier verifier(record, rm5());
    benchmark::DoNotOptimize(verifier.verify(request, outcome.response, 0.0));
  }
}
BENCHMARK(BM_VerifierColdBuild);

void BM_TimingSimScalarRun(benchmark::State& state) {
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 1);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const timingsim::TimingSimulator sim(circuit.net);
  support::Xoshiro256pp rng(12);
  const auto challenge =
      support::BitVector::random(circuit.net.num_inputs(), rng);
  std::vector<timingsim::SignalState> states;
  for (auto _ : state) {
    sim.run(challenge, delays, states);
    benchmark::DoNotOptimize(states.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimingSimScalarRun);

void BM_Transpose64x64(benchmark::State& state) {
  // The bit-slice packing primitive: one 64x64 bit-matrix transpose turns
  // 64 challenge words into 64 lane words (items = lanes per block).
  support::Xoshiro256pp rng(16);
  std::uint64_t m[64];
  for (auto& w : m) w = rng.next();
  for (auto _ : state) {
    support::transpose_64x64(m);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Transpose64x64);

void BM_BitslicePackInputWords(benchmark::State& state) {
  // Full transpose layer cost per evaluation: what the bit-sliced engine
  // charges on top of its kernel to accept BitVector challenges.
  const auto circuit = netlist::build_alu_puf_circuit(32);
  support::Xoshiro256pp rng(17);
  const std::size_t batch = 256;
  std::vector<support::BitVector> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  for (auto _ : state) {
    timingsim::pack_input_words(challenges.data(), batch,
                                circuit.net.num_inputs(), words);
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BitslicePackInputWords);

/// The 32-bit ALU PUF circuit, one chip's nominal delays, and `lanes`
/// random challenges packed into bit-slice input words: the fixture of the
/// lane-count sweeps below.
struct SliceFixture {
  netlist::AluPufCircuit circuit;
  timingsim::DelaySet delays;
  timingsim::TimingSimulator sim;
  std::vector<std::uint64_t> words;

  SliceFixture(std::size_t lanes, std::uint64_t seed)
      : circuit(netlist::build_alu_puf_circuit(32)),
        delays(variation::ChipInstance(circuit.net, {}, {}, 1)
                   .nominal_delays(variation::Environment::nominal())),
        sim(circuit.net) {
    support::Xoshiro256pp rng(seed);
    std::vector<support::BitVector> challenges;
    for (std::size_t b = 0; b < lanes; ++b) {
      challenges.push_back(
          support::BitVector::random(circuit.net.num_inputs(), rng));
    }
    timingsim::pack_input_words(challenges.data(), lanes,
                                circuit.net.num_inputs(), words);
  }
};

// Lane counts of the bit-slice sweeps: one lane, one PUF() call (8), a
// partial word, the 63/64 word edge, and a fleet batch.
void slice_lane_args(benchmark::internal::Benchmark* b) {
  for (const int lanes : {1, 8, 16, 32, 63, 64, 256}) b->Arg(lanes);
}

void BM_BitsliceSharedRun(benchmark::State& state) {
  // Shared-delay bit-sliced kernel (the emulation path): 64 lanes per
  // value word through the levelized schedule, time-rep shortcuts on.
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const SliceFixture fx(lanes, 18);
  const timingsim::BitSliceEngine engine(fx.sim.compiled(), fx.delays);
  timingsim::BitSliceState out;
  for (auto _ : state) {
    engine.run(fx.words.data(), lanes, out);
    benchmark::DoNotOptimize(out.values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_BitsliceSharedRun)->Apply(slice_lane_args);

void BM_BitsliceLaneRun(benchmark::State& state) {
  // Lane-delay bit-sliced kernel (the noisy device path): every computed
  // gate carries per-lane times, so this isolates the word-parallel value
  // pass + fused AVX time pass against one fixed delay realization.
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const SliceFixture fx(lanes, 19);
  support::Xoshiro256pp rng(20);
  const std::size_t gates = fx.circuit.net.num_gates();
  timingsim::BatchDelays lane_delays;
  lane_delays.batch = lanes;
  lane_delays.rise_ps.resize(gates * lanes);
  lane_delays.fall_ps.resize(gates * lanes);
  for (std::size_t g = 0; g < gates; ++g) {
    for (std::size_t b = 0; b < lanes; ++b) {
      const double jitter = 1.0 + 0.01 * rng.uniform();
      lane_delays.rise_ps[g * lanes + b] = fx.delays.rise_ps[g] * jitter;
      lane_delays.fall_ps[g * lanes + b] = fx.delays.fall_ps[g] * jitter;
    }
  }
  const timingsim::BitSliceEngine engine(fx.sim.compiled());
  timingsim::BitSliceState out;
  for (auto _ : state) {
    engine.run(fx.words.data(), lanes, lane_delays, out);
    benchmark::DoNotOptimize(out.values.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_BitsliceLaneRun)->Apply(slice_lane_args);

void BM_AluPufEvalBatch(benchmark::State& state) {
  const alupuf::AluPuf puf(puf32(), 1);
  support::Xoshiro256pp rng(14);
  const auto env = variation::Environment::nominal();
  puf.prewarm(env);
  const std::size_t batch = 64;
  std::vector<alupuf::Challenge> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(support::BitVector::random(64, rng));
  }
  alupuf::AluPufBatchScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(puf.eval_batch(challenges.data(), batch, env,
                                            rng, nullptr, &scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_AluPufEvalBatch);

void BM_EmulatorEvalSoftBatch(benchmark::State& state) {
  const alupuf::AluPuf puf(puf32(), 1);
  const alupuf::AluPufEmulator emulator(32, puf.export_model());
  support::Xoshiro256pp rng(15);
  const std::size_t batch = 8;  // one PUF() call's worth
  std::vector<alupuf::Challenge> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(support::BitVector::random(64, rng));
  }
  std::vector<double> soft;
  for (auto _ : state) {
    emulator.eval_soft_batch(challenges.data(), batch, soft);
    benchmark::DoNotOptimize(soft.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EmulatorEvalSoftBatch);

void BM_LogRegTrain(benchmark::State& state) {
  support::Xoshiro256pp rng(11);
  std::vector<adversary::Example> data;
  for (int i = 0; i < 1000; ++i) {
    adversary::Example ex;
    for (int f = 0; f < 65; ++f) ex.features.push_back(rng.gaussian());
    ex.label = rng.bernoulli(0.5);
    data.push_back(std::move(ex));
  }
  adversary::LogRegParams params;
  params.epochs = 5;
  for (auto _ : state) {
    adversary::LogisticRegression model(65);
    model.train(data, params, rng);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_LogRegTrain);

// Reporter that mirrors the console output while capturing every run for
// the stable-schema JSON file (BENCH_micro_perf.json) the CI trajectory
// tracking consumes.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double s_per_iter = 0.0;
    double items_per_s = 0.0;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const auto& run : reports) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.s_per_iter = run.iterations > 0
                           ? run.real_accumulated_time /
                                 static_cast<double>(run.iterations)
                           : 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) row.items_per_s = it->second.value;
      rows.push_back(std::move(row));
    }
  }

  std::vector<Row> rows;
};

void write_json(const char* path, bool smoke,
                const std::vector<JsonCapturingReporter::Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"micro_perf\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"s_per_iter\": %.9e, "
                 "\"items_per_second\": %.1f}%s\n",
                 rows[i].name.c_str(), rows[i].s_per_iter,
                 rows[i].items_per_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // `--smoke` (ctest 'bench' label) shrinks every benchmark's measurement
  // window; all other flags pass through to google-benchmark.
  bool smoke = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char min_time[] = "--benchmark_min_time=0.02";
  if (smoke) args.push_back(min_time);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  write_json("BENCH_micro_perf.json", smoke, reporter.rows);
  return 0;
}
