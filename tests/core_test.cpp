#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/channel.hpp"
#include "cpu/assembler.hpp"
#include "core/crp_database.hpp"
#include "core/enrollment.hpp"
#include "core/protocol.hpp"
#include "core/puf_adapter.hpp"
#include "ecc/reed_muller.hpp"

namespace pufatt::core {
namespace {

using support::BitVector;
using support::Xoshiro256pp;

// ----------------------------------------------------------------- channel

TEST(Channel, TransferTimeScalesWithPayload) {
  const Channel ch({.bandwidth_bps = 1'000'000.0, .latency_us = 100.0});
  EXPECT_DOUBLE_EQ(ch.transfer_us(0), 100.0);
  EXPECT_DOUBLE_EQ(ch.transfer_us(125), 100.0 + 1000.0);  // 1000 bits @ 1Mbps
  EXPECT_DOUBLE_EQ(ch.round_trip_us(125, 125), 2200.0);
}

TEST(Channel, RejectsBadParams) {
  EXPECT_THROW(Channel({.bandwidth_bps = 0.0}), std::invalid_argument);
  EXPECT_THROW(Channel({.bandwidth_bps = 1.0, .latency_us = -1.0}),
               std::invalid_argument);
}

// ----------------------------------------------------------------- adapter

TEST(PufAdapter, HelperWordRoundTrip) {
  Xoshiro256pp rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto helper = BitVector::random(26, rng);
    EXPECT_EQ(helper_from_word(helper_to_word(helper), 26), helper);
  }
  EXPECT_THROW(helper_to_word(BitVector(33)), std::invalid_argument);
}

TEST(PufAdapter, ChallengeFromU64) {
  const auto c = challenge_from_u64(0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(c.size(), 64u);
  EXPECT_EQ(c.to_u64(), 0xDEADBEEFCAFEF00DULL);
}

// ------------------------------------------------------- protocol fixture

struct Testbed {
  // Smaller SWAT than production defaults to keep the suite fast, but the
  // full machinery: real gate-level PUF, real PR32 execution.
  Testbed()
      : code(5),
        profile(make_profile()),
        device(profile.puf_config, /*chip_seed=*/4242, code),
        record(enroll(device, profile,
                      make_enrolled_image(profile, make_payload()))),
        verifier(record, code) {}

  static DeviceProfile make_profile() {
    auto profile = DeviceProfile::standard();
    profile.swat.rounds = 512;
    profile.swat.puf_interval = 64;
    profile.swat.attest_words = 1024;
    profile.layout = swat::SwatLayout::standard(profile.swat);
    return profile;
  }

  static std::vector<std::uint32_t> make_payload() {
    std::vector<std::uint32_t> payload(600);
    Xoshiro256pp rng(777);
    for (auto& w : payload) w = static_cast<std::uint32_t>(rng.next());
    return payload;
  }

  ecc::ReedMuller1 code;
  DeviceProfile profile;
  alupuf::PufDevice device;
  EnrollmentRecord record;
  Verifier verifier;
};

class ProtocolTest : public ::testing::Test {
 protected:
  static Testbed& bed() {
    static Testbed instance;  // built once: enrollment is the slow part
    return instance;
  }

  /// Elapsed time as the verifier's clock sees it: prover compute plus the
  /// (deterministic) channel time the verifier also budgets for.  Both
  /// sides of the deadline comparison must include the channel terms, or
  /// the channel allowance gifts the adversary free headroom.
  static double elapsed_us(const CpuProver::Outcome& outcome) {
    const Channel channel;  // the verifier's default channel assumption
    return outcome.compute_us +
           channel.round_trip_us(8, outcome.response.wire_bytes());
  }

  Xoshiro256pp rng_{99};
};

// --------------------------------------------------------------- honest

TEST_F(ProtocolTest, HonestProverAccepted) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 1);
  const Channel channel;
  for (int run = 0; run < 3; ++run) {
    const auto request = bed().verifier.make_request(rng_);
    const auto outcome = prover.respond(request);
    const double elapsed =
        outcome.compute_us +
        channel.round_trip_us(8, outcome.response.wire_bytes());
    const auto result =
        bed().verifier.verify(request, outcome.response, elapsed);
    EXPECT_EQ(result.status, VerifyStatus::kAccepted)
        << to_string(result.status) << " elapsed " << result.elapsed_us
        << " deadline " << result.deadline_us;
  }
}

TEST_F(ProtocolTest, HonestCyclesMatchEnrollment) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 2);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  EXPECT_EQ(outcome.cycles, bed().record.honest_cycles);
}

TEST_F(ProtocolTest, ResponsesDifferAcrossNonces) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 3);
  const auto r1 = prover.respond(AttestationRequest{111});
  const auto r2 = prover.respond(AttestationRequest{222});
  EXPECT_NE(r1.response.checksum, r2.response.checksum);
}

TEST_F(ProtocolTest, HelperTranscriptSizeMatchesPufCalls) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 4);
  const auto outcome = prover.respond(AttestationRequest{5});
  const auto calls =
      bed().profile.swat.rounds / bed().profile.swat.puf_interval;
  EXPECT_EQ(outcome.response.helper_words.size(), calls * 8);
}

// ------------------------------------------------------------- adversaries

TEST_F(ProtocolTest, MalwareWithoutHidingIsCaughtByChecksum) {
  // Naive adversary: tampered image, no redirection.  The checksum differs.
  auto tampered = bed().record;
  // Flip a block of data words ("malware"): with 512 rounds over 1024 words
  // a single word is only sampled with p ~ 0.4, so tamper enough words that
  // at least one is sampled with overwhelming probability.
  for (std::size_t w = 880; w < 940; ++w) tampered.enrolled_image[w] ^= 0x5A5Au;
  CpuProver prover(bed().device, tampered, CpuProver::Variant::kHonest, 5);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  const auto result = bed().verifier.verify(request, outcome.response,
                                            elapsed_us(outcome));
  EXPECT_EQ(result.status, VerifyStatus::kChecksumMismatch);
}

TEST_F(ProtocolTest, RedirectionMalwareIsCaughtByTimeBound) {
  CpuProver prover(bed().device, bed().record,
                   CpuProver::Variant::kRedirectMalware, 6);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  // The redirection preserves the checksum...
  EXPECT_GT(outcome.cycles, bed().record.honest_cycles);
  const auto result = bed().verifier.verify(request, outcome.response,
                                            elapsed_us(outcome));
  // ...but blows the deadline.
  EXPECT_EQ(result.status, VerifyStatus::kTimeExceeded);

  // Sanity: with an infinitely lenient verifier the checksum itself passes,
  // proving the adversary really computed the right value the slow way.
  Verifier lenient(bed().record, bed().code, ChannelParams{}, 10.0);
  const auto lenient_result =
      lenient.verify(request, outcome.response, elapsed_us(outcome));
  EXPECT_EQ(lenient_result.status, VerifyStatus::kAccepted);
}

TEST_F(ProtocolTest, OverclockedRedirectionCorruptsPuf) {
  // The adversary overclocks to squeeze the redirection overhead inside the
  // time bound; the PUF's setup-time violation then corrupts z (Section 4.2
  // "Overclocking Attack Resiliency").
  CpuProver prover(bed().device, bed().record,
                   CpuProver::Variant::kRedirectMalware, 7,
                   /*clock_mhz=*/bed().profile.base_clock_mhz * 2.0);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  const auto result = bed().verifier.verify(request, outcome.response,
                                            elapsed_us(outcome));
  EXPECT_NE(result.status, VerifyStatus::kAccepted);
  // Specifically, it should NOT be the time bound that catches it.
  EXPECT_NE(result.status, VerifyStatus::kTimeExceeded);
}

TEST_F(ProtocolTest, HonestOverclockingAlsoFails) {
  // Even without malware, running the honest program overclocked corrupts
  // the PUF responses: F_base is chosen so that *any* speedup breaks
  // T_ALU + T_set < T_cycle.
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 8,
                   bed().profile.base_clock_mhz * 2.5);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  const auto result = bed().verifier.verify(request, outcome.response,
                                            elapsed_us(outcome));
  EXPECT_NE(result.status, VerifyStatus::kAccepted);
}

TEST_F(ProtocolTest, ImpersonationWithWrongChipRejected) {
  // A different physical device (same model, different die) answers.
  const alupuf::PufDevice impostor(bed().profile.puf_config, 31337, bed().code);
  CpuProver prover(impostor, bed().record, CpuProver::Variant::kHonest, 9);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  const auto result = bed().verifier.verify(request, outcome.response,
                                            elapsed_us(outcome));
  EXPECT_NE(result.status, VerifyStatus::kAccepted);
}

TEST_F(ProtocolTest, ProxyAttackBlowsDeadlineOnSlowChannel) {
  const auto request = bed().verifier.make_request(rng_);
  ProxyAttackParams params;
  params.accomplice_speedup = 100.0;
  params.oracle_channel = {.bandwidth_bps = 250'000.0, .latency_us = 2'000.0};
  const auto outcome =
      proxy_attack(bed().device, bed().record, request, params, rng_);
  // The proxy gets the *checksum* right (it used the real PUF as oracle)...
  std::size_t cursor = 0;
  const auto result = bed().verifier.verify(request, outcome.response,
                                            outcome.elapsed_us);
  EXPECT_EQ(result.status, VerifyStatus::kTimeExceeded);
  EXPECT_EQ(outcome.oracle_calls,
            bed().profile.swat.rounds / bed().profile.swat.puf_interval);
  (void)cursor;
}

TEST_F(ProtocolTest, ProxyAttackChecksumIsCorrectModuloTime) {
  // Confirms the only thing stopping the proxy is the channel.
  const auto request = bed().verifier.make_request(rng_);
  ProxyAttackParams params;
  params.accomplice_speedup = 1e9;  // free compute
  params.oracle_channel = {.bandwidth_bps = 1e12, .latency_us = 0.0};
  const auto outcome =
      proxy_attack(bed().device, bed().record, request, params, rng_);
  const auto result = bed().verifier.verify(request, outcome.response,
                                            outcome.elapsed_us);
  EXPECT_EQ(result.status, VerifyStatus::kAccepted)
      << "an instantaneous channel reduces the proxy to the honest device";
}

TEST_F(ProtocolTest, ForgedChecksumRejected) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 10);
  const auto request = bed().verifier.make_request(rng_);
  auto outcome = prover.respond(request);
  outcome.response.checksum[3] ^= 1;
  const auto result = bed().verifier.verify(request, outcome.response,
                                            elapsed_us(outcome));
  EXPECT_EQ(result.status, VerifyStatus::kChecksumMismatch);
}

TEST_F(ProtocolTest, TruncatedHelperTranscriptRejected) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 11);
  const auto request = bed().verifier.make_request(rng_);
  auto outcome = prover.respond(request);
  outcome.response.helper_words.resize(outcome.response.helper_words.size() - 3);
  const auto result = bed().verifier.verify(request, outcome.response,
                                            elapsed_us(outcome));
  EXPECT_EQ(result.status, VerifyStatus::kPufReconstructionFailed);
}

TEST_F(ProtocolTest, ReplayWithStaleNonceFails) {
  // A recorded response for nonce A does not verify against nonce B.
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 12);
  const AttestationRequest a{1111}, b{2222};
  const auto outcome = prover.respond(a);
  const auto result = bed().verifier.verify(b, outcome.response,
                                            elapsed_us(outcome));
  EXPECT_NE(result.status, VerifyStatus::kAccepted);
}

// --------------------------------------------------------------- misc API

TEST(Protocol, SeedFromNonceNeverZero) {
  EXPECT_NE(seed_from_nonce(0), 0u);
  EXPECT_NE(seed_from_nonce(0xFFFFFFFF00000000ULL ^
                            (0xFFFFFFFFULL << 32)), 0u);
  EXPECT_EQ(seed_from_nonce(0x1234567800000000ULL), 0x12345678u);
}

TEST(Enrollment, ImageLayout) {
  const auto profile = Testbed::make_profile();
  const std::vector<std::uint32_t> payload{10, 20, 30};
  const auto image = make_enrolled_image(profile, payload);
  EXPECT_EQ(image.size(), profile.swat.attest_words);
  // Program at the front, payload right after.
  const auto program =
      cpu::assemble(swat::generate_swat_source(profile.swat, profile.layout))
          .words;
  EXPECT_EQ(image[0], program[0]);
  EXPECT_EQ(image[program.size()], 10u);
  EXPECT_EQ(image[program.size() + 1], 20u);
}

TEST(Enrollment, RejectsWrongImageSize) {
  Testbed bed;
  EXPECT_THROW(enroll(bed.device, bed.profile, std::vector<std::uint32_t>(3)),
               std::invalid_argument);
}

// ------------------------------------------------------------ CRP database

TEST(CrpDatabaseTest, AuthenticatesGenuineDevice) {
  Testbed bed;
  Xoshiro256pp rng(50);
  auto db = CrpDatabase::collect(bed.device.raw_puf(), 20, rng);
  EXPECT_EQ(db.size(), 20u);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    const auto result = db.authenticate(bed.device.raw_puf(), rng);
    EXPECT_FALSE(result.exhausted);
    accepted += result.accepted ? 1 : 0;
  }
  EXPECT_GE(accepted, 9);
  EXPECT_EQ(db.remaining(), 10u);
}

TEST(CrpDatabaseTest, RejectsCloneDevice) {
  Testbed bed;
  const alupuf::AluPuf clone(bed.profile.puf_config, 987654);
  Xoshiro256pp rng(51);
  auto db = CrpDatabase::collect(bed.device.raw_puf(), 20, rng);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    accepted += db.authenticate(clone, rng).accepted ? 1 : 0;
  }
  EXPECT_LE(accepted, 1);
}

TEST(CrpDatabaseTest, ExhaustionIsReported) {
  Testbed bed;
  Xoshiro256pp rng(52);
  auto db = CrpDatabase::collect(bed.device.raw_puf(), 2, rng);
  db.authenticate(bed.device.raw_puf(), rng);
  db.authenticate(bed.device.raw_puf(), rng);
  const auto result = db.authenticate(bed.device.raw_puf(), rng);
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.accepted);
}

// Regression for the O(1) cursor: every authenticate() consumes exactly
// one entry — in order, whether it accepts, rejects, or fails — so
// remaining() ticks down deterministically and a failed attempt can never
// be replayed against the same entry.
TEST(CrpDatabaseTest, EveryAttemptConsumesExactlyOneEntry) {
  Testbed bed;
  const alupuf::AluPuf clone(bed.profile.puf_config, 987654);
  Xoshiro256pp rng(54);
  auto db = CrpDatabase::collect(bed.device.raw_puf(), 6, rng);
  ASSERT_EQ(db.remaining(), 6u);

  // Rejected attempts (clone) consume entries just like accepted ones.
  for (std::size_t attempt = 0; attempt < 6; ++attempt) {
    const auto& puf =
        attempt % 2 == 0 ? bed.device.raw_puf() : clone;
    const auto result = db.authenticate(puf, rng);
    EXPECT_FALSE(result.exhausted);
    EXPECT_EQ(db.remaining(), 6u - attempt - 1);
  }

  // Exhaustion is stable: further attempts consume nothing.
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto result = db.authenticate(bed.device.raw_puf(), rng);
    EXPECT_TRUE(result.exhausted);
    EXPECT_EQ(db.remaining(), 0u);
  }
}

// collect() and authenticate() evaluate through one eval_batch per entry,
// which is not stream-identical to scalar AluPuf::eval but must follow its
// distribution.  Pins the two rates the 22% threshold separates — the
// genuine die's intra-chip HD (~12% here) and a clone's inter-chip HD
// (~30% for this die pair) — to the scalar rates over the same number of
// random challenges, within 4 binomial standard errors of the difference
// (over 24 other seed sets the largest |z| was 2.6).
TEST(CrpDatabaseTest, BatchedDistancesMatchScalar) {
  Testbed bed;
  const auto& genuine = bed.device.raw_puf();
  const alupuf::AluPuf clone(bed.profile.puf_config, 987654);
  const auto env = variation::Environment::nominal();
  constexpr std::size_t kEntries = 400;
  constexpr std::size_t kPerEntry = 8;

  struct Rate {
    double hd = 0.0, bits = 0.0;
    double p() const { return hd / bits; }
    double var() const { return p() * (1.0 - p()) / bits; }
  };
  auto batched = [&](const alupuf::AluPuf& device, std::uint64_t seed) {
    Xoshiro256pp rng(seed);
    auto db = CrpDatabase::collect(genuine, kEntries, rng, kPerEntry);
    Rate rate;
    for (std::size_t i = 0; i < kEntries; ++i) {
      const auto result = db.authenticate(device, rng);
      rate.hd += static_cast<double>(result.distance);
      rate.bits += static_cast<double>(result.compared_bits);
    }
    return rate;
  };
  auto scalar = [&](const alupuf::AluPuf& device, std::uint64_t seed) {
    Xoshiro256pp rng(seed);
    Rate rate;
    for (std::size_t c = 0; c < kEntries * kPerEntry; ++c) {
      const auto challenge = BitVector::random(genuine.challenge_bits(), rng);
      const auto reference = genuine.eval(challenge, env, rng);
      const auto response = device.eval(challenge, env, rng);
      rate.hd += static_cast<double>(response.hamming_distance(reference));
      rate.bits += static_cast<double>(response.size());
    }
    return rate;
  };

  const Rate genuine_batched = batched(genuine, 60);
  const Rate genuine_scalar = scalar(genuine, 61);
  const Rate clone_batched = batched(clone, 62);
  const Rate clone_scalar = scalar(clone, 63);
  EXPECT_NEAR(genuine_batched.p(), genuine_scalar.p(),
              4.0 * std::sqrt(genuine_batched.var() + genuine_scalar.var()));
  EXPECT_NEAR(clone_batched.p(), clone_scalar.p(),
              4.0 * std::sqrt(clone_batched.var() + clone_scalar.var()));
  // And both sit on their side of the default threshold.
  EXPECT_LT(genuine_batched.p(), 0.22);
  EXPECT_GT(clone_batched.p(), 0.22);
}

// The eval_batch RNG contract at the database level: collect() spends the
// entry's challenge words plus one batch seed per entry, authenticate()
// spends exactly one rng.next() (an exhausted one none), and equal rng
// states give byte-equal databases and equal verdicts.
TEST(CrpDatabaseTest, OneBatchSeedPerEntry) {
  Testbed bed;
  const auto& puf = bed.device.raw_puf();
  constexpr std::size_t kEntries = 5;
  constexpr std::size_t kPerEntry = 8;
  Xoshiro256pp rng_a(70), rng_b(70), expected(70);
  auto db_a = CrpDatabase::collect(puf, kEntries, rng_a, kPerEntry);
  auto db_b = CrpDatabase::collect(puf, kEntries, rng_b, kPerEntry);
  // A 64-bit challenge is one word: kPerEntry challenge draws + 1 seed.
  for (std::size_t i = 0; i < kEntries * (kPerEntry + 1); ++i) expected.next();
  EXPECT_EQ(Xoshiro256pp(rng_a).next(), Xoshiro256pp(expected).next());

  std::stringstream bytes_a, bytes_b;
  db_a.save(bytes_a);
  db_b.save(bytes_b);
  EXPECT_EQ(bytes_a.str(), bytes_b.str());

  for (std::size_t i = 0; i <= kEntries; ++i) {
    Xoshiro256pp after = rng_a;
    if (i < kEntries) after.next();
    const auto a = db_a.authenticate(puf, rng_a);
    const auto b = db_b.authenticate(puf, rng_b);
    EXPECT_EQ(a.exhausted, i == kEntries);
    EXPECT_EQ(a.exhausted, b.exhausted);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.distance, b.distance);
    EXPECT_EQ(a.compared_bits, b.compared_bits);
    EXPECT_EQ(Xoshiro256pp(rng_a).next(), Xoshiro256pp(after).next());
  }
}

TEST(CrpDatabaseTest, StorageGrowsLinearly) {
  Testbed bed;
  Xoshiro256pp rng(53);
  const auto db1 = CrpDatabase::collect(bed.device.raw_puf(), 10, rng);
  const auto db2 = CrpDatabase::collect(bed.device.raw_puf(), 20, rng);
  EXPECT_EQ(db2.storage_bytes(), 2 * db1.storage_bytes());
  // 8 CRPs per entry, each 64 challenge + 32 response bits.
  EXPECT_EQ(db1.storage_bytes(), 10 * (8 * (64 + 32)) / 8);
}

}  // namespace
}  // namespace pufatt::core
