// Durable verifier store tests: WAL framing and the torn-tail/corruption
// matrix, durable CRP consumption, snapshot compaction, crash recovery
// (the kill-and-recover acceptance path), and the pool drain barrier.
// Every multi-threaded test here is expected to run clean under
// -DPUFATT_TSAN=ON (see README build matrix).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <map>

#include "core/crp_database.hpp"
#include "obs/metrics.hpp"
#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "core/serialize.hpp"
#include "ecc/reed_muller.hpp"
#include "service/device_registry.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"
#include "store/crp_ledger.hpp"
#include "store/records.hpp"
#include "store/recovery.hpp"
#include "store/replication.hpp"
#include "store/sharded_store.hpp"
#include "store/verifier_store.hpp"
#include "store/wal.hpp"
#include "support/faulty_file.hpp"

namespace pufatt::store {
namespace {

namespace fs = std::filesystem;
using support::Xoshiro256pp;

const ecc::ReedMuller1& code() {
  static const ecc::ReedMuller1 instance(5);
  return instance;
}

/// Fresh empty directory under the test temp root; removed first so a
/// rerun never sees a previous run's log.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pufatt_store_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// filename -> contents for every regular file directly under `dir`:
/// the byte-identical comparison replication tests are built on.
std::map<std::string, std::vector<std::uint8_t>> dir_image(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> image;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      image[entry.path().filename().string()] =
          read_bytes(entry.path().string());
    }
  }
  return image;
}

/// Canonical serialization of whatever crash recovery reconstructs from
/// `dir` — two directories recovering to equal pairs hold the same state.
std::pair<std::string, std::string> serialize_recovered(
    const std::string& dir) {
  const auto state = recover(dir);
  std::stringstream registry(std::ios::in | std::ios::out | std::ios::binary);
  state.registry.save(registry);
  std::stringstream ledger(std::ios::in | std::ios::out | std::ios::binary);
  state.ledger->save(ledger);
  return {registry.str(), ledger.str()};
}

std::uint64_t segment_index(const std::string& path) {
  return std::stoull(fs::path(path).filename().string().substr(4, 8));
}

/// Shared fixture: enrolling real devices is the expensive part, so one
/// small fleet is built once and reused read-only by every test.
struct Fleet {
  struct Device {
    std::string id;
    std::unique_ptr<alupuf::PufDevice> device;
    core::EnrollmentRecord record;
  };
  std::vector<Device> devices;

  static const Fleet& instance() {
    static const Fleet fleet(3);
    return fleet;
  }

  /// A fresh CRP database for device `index` (single measurement set,
  /// deterministic in `seed`).
  core::CrpDatabase collect(std::size_t index, std::size_t entries,
                            std::uint64_t seed) const {
    Xoshiro256pp rng(seed);
    return core::CrpDatabase::collect(devices[index].device->raw_puf(),
                                      entries, rng);
  }

  core::Responder responder(std::size_t index, std::uint64_t seed) const {
    auto prover = std::make_shared<core::CpuProver>(
        *devices[index].device, devices[index].record,
        core::CpuProver::Variant::kHonest, seed);
    return [prover](const core::AttestationRequest& request) {
      auto outcome = prover->respond(request);
      return core::ProverReply{std::move(outcome.response),
                               outcome.compute_us};
    };
  }

 private:
  explicit Fleet(std::size_t count) {
    const auto profile = core::DistributedParams::small_profile();
    Xoshiro256pp rng(0x570E);
    std::vector<std::uint32_t> firmware(600);
    for (auto& word : firmware) word = static_cast<std::uint32_t>(rng.next());
    const auto image = core::make_enrolled_image(profile, firmware);
    devices.resize(count);
    for (std::size_t d = 0; d < count; ++d) {
      devices[d].id = "stored-" + std::to_string(d);
      devices[d].device = std::make_unique<alupuf::PufDevice>(
          profile.puf_config, 0x57D0 + d, code());
      devices[d].record = core::enroll(*devices[d].device, profile, image);
    }
  }
};

// --- WAL framing ------------------------------------------------------------

TEST(Wal, RoundTripAcrossReopen) {
  const std::string dir = fresh_dir("round_trip");
  {
    WalWriter wal(dir);
    EXPECT_EQ(wal.append(7, "alpha"), 0u);
    EXPECT_EQ(wal.append(8, std::string(1000, 'x')), 1u);
    EXPECT_EQ(wal.append(kCheckpoint, ""), 2u);  // zero-length payload
    wal.sync();
  }
  const auto result = read_wal(dir);
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.segments, 1u);
  EXPECT_EQ(result.records[0].type, 7u);
  EXPECT_EQ(std::string(result.records[0].payload.begin(),
                        result.records[0].payload.end()),
            "alpha");
  EXPECT_EQ(result.records[1].payload.size(), 1000u);
  EXPECT_TRUE(result.records[2].payload.empty());

  // Reopen resumes the same segment and keeps appending after the tail.
  {
    WalWriter wal(dir);
    wal.append(9, "omega");
    wal.sync();
  }
  EXPECT_EQ(read_wal(dir).records.size(), 4u);
}

TEST(Wal, RotationSplitsSegments) {
  const std::string dir = fresh_dir("rotation");
  WalOptions options;
  options.segment_bytes = 256;  // tiny, to force rotation quickly
  WalWriter wal(dir, options);
  for (int i = 0; i < 40; ++i) wal.append(1, std::string(32, 'r'));
  wal.sync();
  EXPECT_GT(wal.current_segment_index(), 1u);
  const auto result = read_wal(dir);
  EXPECT_EQ(result.records.size(), 40u);
  EXPECT_GT(result.segments, 1u);
  EXPECT_FALSE(result.torn_tail);
}

TEST(Wal, TornTailAcceptedAndTruncatedOnReopen) {
  const std::string dir = fresh_dir("torn_tail");
  {
    WalWriter wal(dir);
    wal.append(1, "first");
    wal.append(2, "second");
    wal.sync();
  }
  const std::string segment = wal_segment_paths(dir).back();
  auto bytes = read_bytes(segment);
  // Cut into the final record: a crash mid-append leaves exactly this.
  write_bytes(segment, {bytes.begin(), bytes.end() - 5});

  const auto result = read_wal(dir);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_TRUE(result.torn_tail);

  // The writer truncates the torn tail and extends the clean prefix.
  {
    WalWriter wal(dir);
    wal.append(3, "third");
    wal.sync();
  }
  const auto after = read_wal(dir);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.records[1].type, 3u);
}

TEST(Wal, FlippedCrcByteIsHardError) {
  const std::string dir = fresh_dir("flipped_crc");
  {
    WalWriter wal(dir);
    wal.append(1, "payload-under-test");
    wal.sync();
  }
  const std::string segment = wal_segment_paths(dir).back();
  auto bytes = read_bytes(segment);
  bytes.back() ^= 0x01;  // the record's trailing CRC byte
  write_bytes(segment, bytes);
  EXPECT_THROW(read_wal(dir), StoreError);
}

TEST(Wal, GarbageSegmentHeaderIsHardError) {
  const std::string dir = fresh_dir("garbage_header");
  {
    WalWriter wal(dir);
    wal.append(1, "x");
    wal.sync();
  }
  const std::string segment = wal_segment_paths(dir).back();
  auto bytes = read_bytes(segment);
  bytes[0] ^= 0xFF;
  write_bytes(segment, bytes);
  EXPECT_THROW(read_wal(dir), StoreError);
  EXPECT_THROW(WalWriter{dir}, StoreError);  // reopen must refuse too
}

// Seeded fuzz over the documented corruption matrix: any truncation of the
// final segment is a torn tail (accepted, records a prefix); any byte flip
// in a non-final segment is a hard error (its records are all complete, so
// nothing there can be explained as a crash).
TEST(Wal, CorruptionMatrixFuzz) {
  const std::string dir = fresh_dir("fuzz_base");
  WalOptions options;
  options.segment_bytes = 200;
  {
    WalWriter wal(dir, options);
    for (int i = 0; i < 24; ++i) {
      wal.append(static_cast<std::uint32_t>(i + 1), std::string(24, 'f'));
    }
    wal.sync();
  }
  const auto paths = wal_segment_paths(dir);
  ASSERT_GT(paths.size(), 2u);
  const std::size_t baseline = read_wal(dir).records.size();
  ASSERT_EQ(baseline, 24u);

  std::vector<std::vector<std::uint8_t>> pristine;
  for (const auto& path : paths) pristine.push_back(read_bytes(path));
  auto restore = [&] {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      write_bytes(paths[i], pristine[i]);
    }
  };

  Xoshiro256pp rng(0xC0221);
  for (int trial = 0; trial < 120; ++trial) {
    restore();
    if (trial % 2 == 0) {
      // Truncate the final segment at a random length.
      const auto& tail = pristine.back();
      const std::size_t cut = rng.next() % (tail.size() + 1);
      write_bytes(paths.back(), {tail.begin(), tail.begin() +
                                 static_cast<std::ptrdiff_t>(cut)});
      const auto result = read_wal(dir);
      EXPECT_LE(result.records.size(), baseline);
      for (std::size_t i = 0; i < result.records.size(); ++i) {
        EXPECT_EQ(result.records[i].type, i + 1);  // a strict prefix
      }
    } else {
      // Flip one byte somewhere in a non-final segment.
      const std::size_t victim = rng.next() % (paths.size() - 1);
      auto bytes = pristine[victim];
      bytes[rng.next() % bytes.size()] ^= static_cast<std::uint8_t>(
          1u << (rng.next() % 8));
      write_bytes(paths[victim], bytes);
      EXPECT_THROW(read_wal(dir), StoreError) << "trial " << trial;
    }
  }
}

// A failed rotation (the new segment cannot be created) must leave the
// writer in a clean failed state: every further append/sync throws
// StoreError instead of fwrite/fileno on a null stream.
TEST(Wal, FailedRotationLeavesWriterFailedNotCrashed) {
  const std::string dir = fresh_dir("failed_rotation");
  WalOptions options;
  options.segment_bytes = 64;  // the first record already overflows it
  options.sync_every = 0;
  auto wal = std::make_unique<WalWriter>(dir, options);
  wal->append(1, std::string(80, 'x'));
  wal->sync();
  // Make the next rotation's fopen fail for any user (root included):
  // replace the log directory with a regular file.
  fs::remove_all(dir);
  { std::ofstream(dir).put('x'); }
  EXPECT_THROW(wal->append(1, "trigger-rotation"), StoreError);
  EXPECT_THROW(wal->append(1, "already-failed"), StoreError);
  EXPECT_THROW(wal->sync(), StoreError);
  wal.reset();  // the destructor tolerates the failed state
  fs::remove(dir);
}

TEST(Wal, ConcurrentAppendsKeepPerThreadOrder) {
  const std::string dir = fresh_dir("concurrent");
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 200;
  {
    WalOptions options;
    options.segment_bytes = 4096;  // rotate a few times under contention
    options.sync_every = 16;
    WalWriter wal(dir, options);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          std::string payload;
          payload.push_back(static_cast<char>('A' + t));
          payload += std::to_string(i);
          wal.append(static_cast<std::uint32_t>(t + 1), payload);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    wal.sync();
    EXPECT_EQ(wal.appended_records(), kThreads * kPerThread);
  }
  const auto result = read_wal(dir);
  ASSERT_EQ(result.records.size(), kThreads * kPerThread);
  EXPECT_FALSE(result.torn_tail);
  // Interleaving across threads is arbitrary, but each thread's records
  // must appear in its own issue order.
  std::vector<std::size_t> next(kThreads, 0);
  for (const auto& record : result.records) {
    const std::string payload(record.payload.begin(), record.payload.end());
    const auto t = static_cast<std::size_t>(payload[0] - 'A');
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(payload.substr(1), std::to_string(next[t]));
    ++next[t];
  }
}

// --- CrpDatabase persistence -------------------------------------------------

TEST(CrpDatabasePersistence, RoundTripKeepsCursorAndEntries) {
  const auto& fleet = Fleet::instance();
  auto db = fleet.collect(0, 4, 0xDB01);
  Xoshiro256pp rng(0x11);
  const auto first = db.authenticate(fleet.devices[0].device->raw_puf(), rng);
  EXPECT_TRUE(first.conclusive());
  EXPECT_TRUE(first.accepted);  // genuine device, genuine references
  EXPECT_EQ(db.remaining(), 3u);

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  db.save(buffer);
  auto reloaded = core::CrpDatabase::load(buffer);
  EXPECT_EQ(reloaded.size(), 4u);
  EXPECT_EQ(reloaded.remaining(), 3u);
  EXPECT_EQ(reloaded.consumed(), 1u);

  // Byte-stable: saving the reload reproduces the bytes exactly.
  std::stringstream again(std::ios::in | std::ios::out | std::ios::binary);
  reloaded.save(again);
  EXPECT_EQ(buffer.str(), again.str());

  // The reload keeps consuming where the original left off, never reusing
  // the spent entry (the anti-replay property of a single-use database).
  Xoshiro256pp rng2(0x12);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(reloaded
                    .authenticate(fleet.devices[0].device->raw_puf(), rng2)
                    .conclusive());
  }
  const auto spent =
      reloaded.authenticate(fleet.devices[0].device->raw_puf(), rng2);
  EXPECT_TRUE(spent.exhausted);
  EXPECT_FALSE(spent.conclusive());
}

TEST(CrpDatabasePersistence, MarkConsumedThroughIsIdempotent) {
  const auto& fleet = Fleet::instance();
  auto db = fleet.collect(1, 5, 0xDB02);
  db.mark_consumed_through(2);
  EXPECT_EQ(db.consumed(), 3u);
  db.mark_consumed_through(2);  // replaying the same marker moves nothing
  EXPECT_EQ(db.consumed(), 3u);
  db.mark_consumed_through(0);  // an older marker never rewinds
  EXPECT_EQ(db.consumed(), 3u);
  EXPECT_EQ(db.remaining(), 2u);
  EXPECT_THROW(db.mark_consumed_through(5), std::out_of_range);
}

TEST(CrpDatabasePersistence, LoadRejectsGarbage) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  buffer << "definitely not a CRP database";
  EXPECT_THROW(core::CrpDatabase::load(buffer), core::SerializationError);
}

// --- CrpLedger ---------------------------------------------------------------

TEST(CrpLedger, LogsConsumptionAndFiresWatermarkOnce) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("ledger_watermark");
  WalWriter wal(dir);

  CrpLedger::Options options;
  options.low_watermark = 1;
  std::vector<std::pair<std::string, std::size_t>> low_calls;
  options.on_low = [&](const std::string& id, std::size_t remaining) {
    low_calls.emplace_back(id, remaining);
  };
  CrpLedger ledger(&wal, options);
  const std::string id = fleet.devices[0].id;
  ledger.enroll(id, fleet.collect(0, 3, 0xDB03));
  EXPECT_EQ(ledger.remaining(id), std::size_t{3});

  Xoshiro256pp rng(0x21);
  const auto& puf = fleet.devices[0].device->raw_puf();
  ASSERT_TRUE(ledger.authenticate(id, puf, rng).has_value());
  EXPECT_TRUE(low_calls.empty());  // remaining 2, above the watermark
  ASSERT_TRUE(ledger.authenticate(id, puf, rng).has_value());
  ASSERT_EQ(low_calls.size(), 1u);  // remaining 1: first crossing fires
  EXPECT_EQ(low_calls[0].first, id);
  EXPECT_EQ(low_calls[0].second, 1u);
  ASSERT_TRUE(ledger.authenticate(id, puf, rng).has_value());
  EXPECT_EQ(low_calls.size(), 1u);  // deeper depletion: no re-fire

  // Replenishing above the watermark re-arms the hook.
  ledger.enroll(id, fleet.collect(0, 3, 0xDB04));
  Xoshiro256pp rng2(0x22);
  ASSERT_TRUE(ledger.authenticate(id, puf, rng2).has_value());
  ASSERT_TRUE(ledger.authenticate(id, puf, rng2).has_value());
  EXPECT_EQ(low_calls.size(), 2u);

  EXPECT_FALSE(ledger.authenticate("nobody", puf, rng2).has_value());

  // Everything above went through the WAL: one enroll + consume marker per
  // conclusive authentication, twice over.
  wal.sync();
  const auto log = read_wal(dir);
  std::size_t enrolls = 0, consumes = 0;
  for (const auto& record : log.records) {
    if (record.type == kCrpEnroll) ++enrolls;
    if (record.type == kCrpConsume) ++consumes;
  }
  EXPECT_EQ(enrolls, 2u);
  EXPECT_EQ(consumes, 5u);
}

// The consume marker precedes the evaluation: a judgement that throws (a
// device of another width) has spent its entry in memory, so the WAL must
// say so too, or recovery would serve the entry again.
TEST(CrpLedger, ThrowingEvaluationStillLogsConsume) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("ledger_throwing_eval");
  const std::string id = fleet.devices[0].id;
  alupuf::AluPufConfig narrow_config;
  narrow_config.width = 16;
  const alupuf::AluPuf narrow(narrow_config, 0x16);

  std::size_t live_remaining = 0;
  std::vector<std::size_t> low_calls;
  {
    WalWriter wal(dir);
    CrpLedger::Options options;
    options.low_watermark = 2;
    options.on_low = [&](const std::string&, std::size_t remaining) {
      low_calls.push_back(remaining);
    };
    CrpLedger ledger(&wal, options);
    ledger.enroll(id, fleet.collect(0, 4, 0x7A01));
    Xoshiro256pp rng(0x7A);
    ASSERT_TRUE(ledger.authenticate(id, fleet.devices[0].device->raw_puf(), rng)
                    .has_value());
    EXPECT_THROW(ledger.authenticate(id, narrow, rng), std::invalid_argument);
    live_remaining = *ledger.remaining(id);
    EXPECT_EQ(live_remaining, 2u);
    // The throwing consume crossed the watermark: the hook still fired.
    EXPECT_EQ(low_calls, std::vector<std::size_t>{2});
    wal.sync();
  }
  const auto state = recover(dir);
  EXPECT_EQ(state.ledger->remaining(id), live_remaining);
}

// Same through the facade: the hook fires after the store's lock is
// released even when the evaluation throws, and a reopen agrees.
TEST(VerifierStore, ThrowingCrpEvaluationStillFiresHook) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("store_throwing_eval");
  const std::string id = fleet.devices[0].id;
  alupuf::AluPufConfig narrow_config;
  narrow_config.width = 16;
  const alupuf::AluPuf narrow(narrow_config, 0x16);
  int fired = 0;
  StoreOptions options;
  options.crp.low_watermark = 2;
  options.crp.on_low = [&](const std::string&, std::size_t) { ++fired; };
  {
    auto db = VerifierStore::open(dir, options);
    db->enroll_crps(id, fleet.collect(0, 3, 0x7A02));
    Xoshiro256pp rng(0x7B);
    EXPECT_THROW(db->authenticate_crp(id, narrow, rng), std::invalid_argument);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(db->crp_remaining(id), std::size_t{2});
    db->sync();
  }
  auto reopened = VerifierStore::open(dir);
  EXPECT_EQ(reopened->crp_remaining(id), std::size_t{2});
}

// Evaluation runs outside the ledger lock while on_low re-enrolls the
// databases under it.  Claims stay serialized: within each database
// generation the WAL's consume markers name indices 0, 1, 2, ... with no
// index twice, the markers match the conclusive results one for one, and
// replaying the WAL reproduces the live ledger byte for byte.
TEST(CrpLedger, ConcurrentAuthenticateWhileReplenishing) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("ledger_concurrent");
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kAuthsPerThread = 60;
  constexpr std::size_t kEntries = 6;
  for (const auto& device : fleet.devices) {
    device.device->raw_puf().prewarm(variation::Environment::nominal());
  }

  WalWriter wal(dir);
  CrpLedger* live = nullptr;
  std::atomic<std::uint64_t> episodes{0};
  CrpLedger::Options options;
  options.low_watermark = 2;
  options.on_low = [&](const std::string& id, std::size_t) {
    const std::size_t d = std::stoul(id.substr(id.find('-') + 1));
    live->enroll(id, fleet.collect(d, kEntries, 0xC0C0 + ++episodes));
  };
  CrpLedger ledger(&wal, options);
  live = &ledger;
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    ledger.enroll(fleet.devices[d].id, fleet.collect(d, kEntries, 0xC000 + d));
  }

  std::atomic<std::size_t> conclusive{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256pp rng(0xC1 + t);
      for (std::size_t k = 0; k < kAuthsPerThread; ++k) {
        const auto& device = fleet.devices[rng.next() % fleet.devices.size()];
        const auto result =
            ledger.authenticate(device.id, device.device->raw_puf(), rng);
        if (result && result->conclusive()) ++conclusive;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(episodes.load(), 0u);
  wal.sync();

  std::map<std::string, std::uint64_t> next_index;  // per current generation
  std::size_t consumes = 0;
  for (const auto& record : read_wal(dir).records) {
    if (record.type == kCrpEnroll) {
      next_index[decode_crp_enroll(record).device_id] = 0;
    } else if (record.type == kCrpConsume) {
      const auto consume = decode_crp_consume(record);
      EXPECT_EQ(consume.entry_index, next_index[consume.device_id]++);
      ++consumes;
    }
  }
  EXPECT_EQ(consumes, conclusive.load());

  std::stringstream live_bytes(std::ios::in | std::ios::out | std::ios::binary);
  ledger.save(live_bytes);
  std::stringstream replayed(std::ios::in | std::ios::out | std::ios::binary);
  recover(dir).ledger->save(replayed);
  EXPECT_EQ(live_bytes.str(), replayed.str());
}

// --- VerifierStore: the kill-and-recover acceptance test --------------------

TEST(VerifierStore, KillAndRecover) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("kill_and_recover");
  constexpr std::size_t kEntriesPerDevice = 6;
  constexpr std::size_t kConsume = 7;

  {
    auto db = VerifierStore::open(dir);
    for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
      EXPECT_TRUE(db->enroll(fleet.devices[d].id, fleet.devices[d].record));
      db->enroll_crps(fleet.devices[d].id,
                      fleet.collect(d, kEntriesPerDevice, 0xE110 + d));
    }
    Xoshiro256pp rng(0x31);
    for (std::size_t k = 0; k < kConsume; ++k) {
      const std::size_t d = k % fleet.devices.size();
      const auto result = db->authenticate_crp(
          fleet.devices[d].id, fleet.devices[d].device->raw_puf(), rng);
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->conclusive());
    }
    db->sync();
    // Process state is dropped here: the unique_ptr dies, and recovery
    // below starts from nothing but the directory.
  }

  auto recovered = VerifierStore::open(dir);
  const auto& stats = recovered->recovery_stats();
  EXPECT_FALSE(stats.snapshot_present);  // never compacted: WAL-only
  EXPECT_EQ(stats.devices, fleet.devices.size());
  EXPECT_EQ(stats.crp_devices, fleet.devices.size());
  EXPECT_EQ(stats.crp_remaining,
            fleet.devices.size() * kEntriesPerDevice - kConsume);

  // Per-device cursors: consumption was round-robin, so device d consumed
  // ceil/floor of kConsume across the fleet.
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    const std::size_t consumed =
        kConsume / fleet.devices.size() +
        (d < kConsume % fleet.devices.size() ? 1 : 0);
    EXPECT_EQ(recovered->crp_remaining(fleet.devices[d].id),
              kEntriesPerDevice - consumed);
  }

  // The replay guarantee: recovered authentication continues from the
  // cursor — spent entries are never served again.
  Xoshiro256pp rng(0x32);
  const auto before = *recovered->crp_remaining(fleet.devices[0].id);
  const auto result = recovered->authenticate_crp(
      fleet.devices[0].id, fleet.devices[0].device->raw_puf(), rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->conclusive());
  EXPECT_EQ(*recovered->crp_remaining(fleet.devices[0].id), before - 1);

  // The registry came back intact enough to serve attestations.
  EXPECT_TRUE(recovered->registry().contains(fleet.devices[0].id));
  EXPECT_NE(recovered->registry().load(fleet.devices[1].id), nullptr);
}

TEST(VerifierStore, RecoveryIsByteStable) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("byte_stable");
  {
    auto db = VerifierStore::open(dir);
    for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
      db->enroll(fleet.devices[d].id, fleet.devices[d].record);
      db->enroll_crps(fleet.devices[d].id, fleet.collect(d, 3, 0xB17E + d));
    }
    Xoshiro256pp rng(0x41);
    db->authenticate_crp(fleet.devices[1].id,
                         fleet.devices[1].device->raw_puf(), rng);
    db->sync();
  }

  auto serialize = [&] {
    const auto state = recover(dir);
    std::stringstream registry(std::ios::in | std::ios::out |
                               std::ios::binary);
    state.registry.save(registry);
    std::stringstream ledger(std::ios::in | std::ios::out | std::ios::binary);
    state.ledger->save(ledger);
    return std::make_pair(registry.str(), ledger.str());
  };
  const auto first = serialize();
  const auto second = serialize();
  EXPECT_EQ(first.first, second.first);    // registry bytes
  EXPECT_EQ(first.second, second.second);  // ledger bytes
  EXPECT_FALSE(first.first.empty());
  EXPECT_FALSE(first.second.empty());
}

TEST(VerifierStore, CompactionFoldsWalIntoSnapshot) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("compaction");
  std::string registry_bytes;
  {
    auto db = VerifierStore::open(dir);
    for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
      db->enroll(fleet.devices[d].id, fleet.devices[d].record);
      db->enroll_crps(fleet.devices[d].id, fleet.collect(d, 4, 0xF01D + d));
    }
    db->evict(fleet.devices[2].id);
    Xoshiro256pp rng(0x51);
    db->authenticate_crp(fleet.devices[0].id,
                         fleet.devices[0].device->raw_puf(), rng);
    db->compact();
    EXPECT_TRUE(fs::exists(snapshot_path(dir)));
    EXPECT_TRUE(read_wal(dir).records.empty());  // folded away

    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    db->registry().save(buffer);
    registry_bytes = buffer.str();
  }

  auto reopened = VerifierStore::open(dir);
  const auto& stats = reopened->recovery_stats();
  EXPECT_TRUE(stats.snapshot_present);
  EXPECT_EQ(stats.records_replayed, 0u);  // the snapshot carries everything
  // The snapshot recorded the folded segment as its watermark, and the
  // restarted log resumes strictly above it.
  EXPECT_GE(stats.snapshot_watermark, 1u);
  EXPECT_EQ(reopened->wal().current_segment_index(),
            stats.snapshot_watermark + 1);
  EXPECT_EQ(stats.devices, fleet.devices.size() - 1);
  EXPECT_FALSE(reopened->registry().contains(fleet.devices[2].id));
  EXPECT_EQ(reopened->crp_remaining(fleet.devices[0].id), std::size_t{3});

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  reopened->registry().save(buffer);
  EXPECT_EQ(buffer.str(), registry_bytes);
}

TEST(VerifierStore, SnapshotPlusTailRecovery) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("snapshot_plus_tail");
  {
    auto db = VerifierStore::open(dir);
    db->enroll(fleet.devices[0].id, fleet.devices[0].record);
    db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 4, 0x7A11));
    db->compact();
    // Post-compaction mutations land in the fresh WAL tail only.
    db->enroll(fleet.devices[1].id, fleet.devices[1].record);
    Xoshiro256pp rng(0x61);
    db->authenticate_crp(fleet.devices[0].id,
                         fleet.devices[0].device->raw_puf(), rng);
    db->sync();
  }
  auto reopened = VerifierStore::open(dir);
  const auto& stats = reopened->recovery_stats();
  EXPECT_TRUE(stats.snapshot_present);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_EQ(stats.devices, 2u);
  EXPECT_EQ(reopened->crp_remaining(fleet.devices[0].id), std::size_t{3});
}

// A crash *between* the snapshot rename and the WAL segment deletion
// leaves both the new snapshot and the full WAL.  The snapshot's
// watermark makes recovery skip every folded segment — nothing is
// double-applied, and the next open finishes the deletion.
TEST(VerifierStore, InterruptedCompactionSkipsFoldedSegments) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("interrupted_compaction");
  {
    auto db = VerifierStore::open(dir);
    db->enroll(fleet.devices[0].id, fleet.devices[0].record);
    db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 5, 0x1C0));
    Xoshiro256pp rng(0x71);
    db->authenticate_crp(fleet.devices[0].id,
                         fleet.devices[0].device->raw_puf(), rng);
    db->authenticate_crp(fleet.devices[0].id,
                         fleet.devices[0].device->raw_puf(), rng);
    db->sync();
    // Simulate the torn compaction: snapshot written (watermark = the
    // segment it folded), segments NOT deleted.
    write_snapshot(dir, db->registry(), db->crp_ledger(),
                   db->wal().current_segment_index());
  }
  auto recovered = VerifierStore::open(dir);
  const auto& stats = recovered->recovery_stats();
  EXPECT_TRUE(stats.snapshot_present);
  EXPECT_GE(stats.snapshot_watermark, 1u);
  EXPECT_EQ(stats.records_replayed, 0u);  // folded segments skipped unread
  EXPECT_GE(stats.wal_segments_skipped, 1u);
  EXPECT_EQ(stats.devices, 1u);
  // The consume cursor comes from the snapshot alone: exactly 2, not 4.
  EXPECT_EQ(recovered->crp_remaining(fleet.devices[0].id), std::size_t{3});
  // The interrupted deletion was finished on open: only segments above
  // the watermark remain.
  for (const auto& path : wal_segment_paths(dir)) {
    const std::string name = fs::path(path).filename().string();
    EXPECT_GT(std::stoull(name.substr(4, 8)), stats.snapshot_watermark)
        << path;
  }
}

// The reason the watermark exists: a stale WAL tail left by an
// interrupted compaction is not merely redundant, it can be *wrong* to
// replay.  Here the snapshotted state replaced a device's database with a
// smaller one; a stale consume marker (index 2) points past the fresh
// 2-entry database, so pre-watermark full-tail replay would refuse to
// open the store (and with a same-size replacement it would silently mark
// fresh entries consumed).
TEST(VerifierStore, StaleConsumeMarkersNeverReplayOntoFreshDatabase) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("stale_tail");
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> stale;
  {
    auto db = VerifierStore::open(dir);
    db->enroll(fleet.devices[0].id, fleet.devices[0].record);
    db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 5, 0x57A1));
    Xoshiro256pp rng(0x81);
    for (int i = 0; i < 3; ++i) {  // consume markers for indices 0, 1, 2
      ASSERT_TRUE(db->authenticate_crp(fleet.devices[0].id,
                                       fleet.devices[0].device->raw_puf(), rng)
                      .has_value());
    }
    db->sync();
    for (const auto& path : wal_segment_paths(dir)) {
      stale.emplace_back(path, read_bytes(path));
    }
    db->compact();
    // Post-compaction: a smaller replacement database (2 entries).
    db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 2, 0x57A2));
    db->sync();
  }
  // Resurrect the folded segments, as if the compaction's deletion never
  // reached the disk.
  for (const auto& [path, bytes] : stale) {
    ASSERT_FALSE(fs::exists(path));  // compact() did delete them live
    write_bytes(path, bytes);
  }

  auto recovered = VerifierStore::open(dir);  // must not throw
  const auto& stats = recovered->recovery_stats();
  EXPECT_GE(stats.wal_segments_skipped, 1u);
  // The fresh database is untouched by the stale markers.
  EXPECT_EQ(recovered->crp_remaining(fleet.devices[0].id), std::size_t{2});
}

// The documented replenish pattern: the depletion hook calls straight
// back into the store.  enroll_crps takes the store's exclusive lock, so
// this deadlocks unless the store fires the hook only after releasing the
// shared lock authenticate_crp holds.
TEST(VerifierStore, LowWatermarkHookMayReenterTheStore) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("hook_reenter");
  VerifierStore* live = nullptr;
  int fired = 0;
  StoreOptions options;
  options.crp.low_watermark = 1;
  options.crp.on_low = [&](const std::string& id, std::size_t remaining) {
    ++fired;
    EXPECT_EQ(remaining, 1u);
    live->enroll_crps(id, fleet.collect(0, 4, 0x0E91));  // replenish inline
  };
  auto db = VerifierStore::open(dir, options);
  live = db.get();
  db->enroll(fleet.devices[0].id, fleet.devices[0].record);
  db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 2, 0x0E90));

  Xoshiro256pp rng(0x91);
  const auto result = db->authenticate_crp(
      fleet.devices[0].id, fleet.devices[0].device->raw_puf(), rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->conclusive());
  EXPECT_EQ(fired, 1);
  // The hook's re-enrollment landed (and re-armed the watermark).
  EXPECT_EQ(db->crp_remaining(fleet.devices[0].id), std::size_t{4});
  ASSERT_TRUE(db->authenticate_crp(fleet.devices[0].id,
                                   fleet.devices[0].device->raw_puf(), rng)
                  .has_value());
  EXPECT_EQ(fired, 1);  // remaining 3 > watermark: no re-fire
}

TEST(VerifierStore, EvictDropsRegistryAndLedger) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("evict");
  {
    auto db = VerifierStore::open(dir);
    db->enroll(fleet.devices[0].id, fleet.devices[0].record);
    db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 2, 0xE51C));
    EXPECT_TRUE(db->evict(fleet.devices[0].id));
    EXPECT_FALSE(db->evict(fleet.devices[0].id));  // already gone: no record
    db->sync();
  }
  auto reopened = VerifierStore::open(dir);
  EXPECT_EQ(reopened->registry().size(), 0u);
  EXPECT_FALSE(reopened->crp_remaining(fleet.devices[0].id).has_value());
}

TEST(VerifierStore, OpenRejectsCorruptLog) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("open_corrupt");
  {
    auto db = VerifierStore::open(dir);
    db->enroll(fleet.devices[0].id, fleet.devices[0].record);
    db->enroll(fleet.devices[1].id, fleet.devices[1].record);
    db->sync();
  }
  const std::string segment = wal_segment_paths(dir).back();
  auto bytes = read_bytes(segment);
  bytes[kSegmentHeaderBytes + 6] ^= 0x40;  // inside the first record
  write_bytes(segment, bytes);
  EXPECT_THROW(VerifierStore::open(dir), StoreError);
}

// --- pool integration: the drain durability barrier -------------------------

TEST(VerifierStore, PoolDrainBarrierSyncsTheStore) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("pool_drain");
  auto db = VerifierStore::open(dir);
  for (const auto& dev : fleet.devices) db->enroll(dev.id, dev.record);

  service::EmulatorCache cache(db->registry(), code(), fleet.devices.size());
  std::atomic<int> drained{0};
  service::PoolConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.on_drain = [&] {
    drained.fetch_add(1);
    db->sync();  // the durability barrier this hook exists for
  };

  std::atomic<std::size_t> accepted{0};
  service::VerifierPool pool(cache, config,
                             [&](const service::JobResult& result) {
                               if (result.outcome ==
                                   service::JobOutcome::kAccepted) {
                                 accepted.fetch_add(1);
                               }
                             });
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    service::AttestationJob job;
    job.device_id = fleet.devices[d].id;
    job.responder = fleet.responder(d, 0xD0 + d);
    job.channel_seed = 0x90 + d;
    job.rng_seed = 0xA0 + d;
    job.tag = d;
    ASSERT_TRUE(pool.submit(job).enqueued());
  }
  pool.drain();
  EXPECT_EQ(drained.load(), 1);
  EXPECT_EQ(accepted.load(), fleet.devices.size());
  pool.drain();  // idempotent: the barrier fires exactly once
  EXPECT_EQ(drained.load(), 1);
  pool.shutdown();
  EXPECT_EQ(drained.load(), 1);
}

// --- record codec edge cases -------------------------------------------------

TEST(Records, DecodersRejectMalformedPayloads) {
  WalRecord record;
  record.type = kEvict;
  record.payload = {0xFF, 0xFF, 0xFF, 0xFF};  // id length = 4 GiB
  EXPECT_THROW(decode_evict(record), StoreError);

  record.payload = {0x02, 0x00, 0x00, 0x00, 'a'};  // claims 2, carries 1
  EXPECT_THROW(decode_evict(record), StoreError);

  record.type = kCrpConsume;
  record.payload = {0x01, 0x00, 0x00, 0x00, 'a', 0x01};  // truncated index
  EXPECT_THROW(decode_crp_consume(record), StoreError);

  record.type = kEnroll;
  record.payload = {0x01, 0x00, 0x00, 0x00, 'a', 0x00, 0x01};  // garbage blob
  EXPECT_THROW(decode_enroll(record), StoreError);

  WalRecord wrong;
  wrong.type = kCheckpoint;
  EXPECT_THROW(decode_evict(wrong), StoreError);
}

TEST(Records, ConsumeRoundTrip) {
  const std::string payload = encode_crp_consume("device-7", 0x123456789ABCull);
  WalRecord record;
  record.type = kCrpConsume;
  record.payload.assign(payload.begin(), payload.end());
  const auto decoded = decode_crp_consume(record);
  EXPECT_EQ(decoded.device_id, "device-7");
  EXPECT_EQ(decoded.entry_index, 0x123456789ABCull);
}

// --- error provenance: StoreError names the segment and byte offset ---------

TEST(Wal, CorruptionErrorsCarrySegmentPathAndByteOffset) {
  const std::string dir = fresh_dir("error_provenance");
  {
    WalWriter wal(dir);
    wal.append(1, "alpha");  // frame [16, 37)
    wal.append(2, "beta!");  // frame [37, 58)
    wal.sync();
  }
  const std::string segment = wal_segment_paths(dir).back();
  auto bytes = read_bytes(segment);
  bytes[37 + 4] ^= 0x01;  // the second record's type field: CRC mismatch
  write_bytes(segment, bytes);
  try {
    read_wal(dir);
    FAIL() << "corrupt record must throw";
  } catch (const StoreError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(segment), std::string::npos) << message;
    EXPECT_NE(message.find("at byte 37"), std::string::npos) << message;
  }
}

TEST(Recovery, ReplayErrorsNameTheRecordOrigin) {
  const std::string dir = fresh_dir("replay_provenance");
  {
    WalWriter wal(dir);
    // A CRC-valid frame whose *payload* is nonsense: an evict record
    // claiming a 4 GiB device id.
    wal.append(kEvict, std::string("\xFF\xFF\xFF\xFF", 4));
    wal.sync();
  }
  try {
    recover(dir);
    FAIL() << "malformed payload must throw";
  } catch (const StoreError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("record from wal-00000001.log at byte 16"),
              std::string::npos)
        << message;
  }
}

// --- registry snapshot load: a torn file never half-loads -------------------

TEST(DeviceRegistryPersistence, TruncatedRegistryFileNeverHalfLoads) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("registry_torn");
  fs::create_directories(dir);
  const std::string path = dir + "/registry.bin";
  service::DeviceRegistry registry(4);
  for (const auto& dev : fleet.devices) registry.store(dev.id, dev.record);
  registry.save_file(path);
  const auto full = read_bytes(path);
  ASSERT_GT(full.size(), 64u);
  ASSERT_EQ(service::DeviceRegistry::load_registry_file(path).size(),
            fleet.devices.size());

  // Every proper prefix must throw — the entry count is written up front,
  // so a short stream can never quietly load fewer devices.
  const std::string torn = dir + "/registry_torn.bin";
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < 24; ++cut) cuts.push_back(cut);
  const std::size_t step = std::max<std::size_t>(1, full.size() / 48);
  for (std::size_t cut = 24; cut < full.size(); cut += step) cuts.push_back(cut);
  cuts.push_back(full.size() - 1);
  for (const std::size_t cut : cuts) {
    write_bytes(torn, {full.begin(),
                       full.begin() + static_cast<std::ptrdiff_t>(cut)});
    EXPECT_THROW(service::DeviceRegistry::load_registry_file(torn),
                 core::SerializationError)
        << "cut at " << cut << " of " << full.size();
  }
}

// --- depletion hook: once per episode, across many episodes -----------------

TEST(VerifierStore, DepletionHookRearmsEveryReplenishEpisode) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("hook_episodes");
  std::vector<std::size_t> fired;
  StoreOptions options;
  options.crp.low_watermark = 1;
  options.crp.on_low = [&](const std::string& id, std::size_t remaining) {
    EXPECT_EQ(id, fleet.devices[0].id);
    fired.push_back(remaining);
  };
  auto db = VerifierStore::open(dir, options);
  db->enroll(fleet.devices[0].id, fleet.devices[0].record);
  const auto& puf = fleet.devices[0].device->raw_puf();
  Xoshiro256pp rng(0xE5D);
  for (int episode = 0; episode < 3; ++episode) {
    // Replenish above the watermark (3 > 1), then run the database dry:
    // the hook must fire exactly once, at the crossing, per episode.
    db->enroll_crps(fleet.devices[0].id,
                    fleet.collect(0, 3, 0xE50 + episode));
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(
          db->authenticate_crp(fleet.devices[0].id, puf, rng).has_value());
    }
    EXPECT_EQ(db->crp_remaining(fleet.devices[0].id), std::size_t{0});
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(episode + 1));
    EXPECT_EQ(fired.back(), 1u);  // fired at the crossing, not at zero
  }
}

// --- WAL corruption fuzz: rotation boundaries and multi-segment tails -------

// Extends the corruption matrix to the places segment rotation makes
// interesting: deleting whole trailing segments (a multi-segment torn
// tail), cuts landing exactly on frame boundaries or inside the 16-byte
// segment header, and a *gap* in the segment sequence, which is never a
// crash image and must be refused.
TEST(Wal, RotationBoundaryAndMultiSegmentTornFuzz) {
  const std::string dir = fresh_dir("fuzz_rotation");
  WalOptions options;
  options.segment_bytes = 200;
  {
    WalWriter wal(dir, options);
    for (int i = 0; i < 24; ++i) {
      wal.append(static_cast<std::uint32_t>(i + 1), std::string(24, 'g'));
    }
    wal.sync();
  }
  const auto paths = wal_segment_paths(dir);
  ASSERT_GT(paths.size(), 2u);
  std::vector<std::vector<std::uint8_t>> pristine;
  std::vector<std::size_t> records_in;  // record count per segment
  for (const auto& path : paths) {
    pristine.push_back(read_bytes(path));
    records_in.push_back(
        read_segment_delta(path, segment_index(path), 0).records.size());
  }
  auto restore = [&] {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      write_bytes(paths[i], pristine[i]);
    }
  };
  auto records_through = [&](std::size_t segments) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < segments; ++i) n += records_in[i];
    return n;
  };

  Xoshiro256pp rng(0xC0222);
  for (int trial = 0; trial < 96; ++trial) {
    restore();
    switch (trial % 4) {
      case 0: {
        // Drop the last k whole segments: still a valid prefix image.
        const std::size_t keep = 1 + rng.next() % (paths.size() - 1);
        for (std::size_t i = keep; i < paths.size(); ++i) fs::remove(paths[i]);
        const auto result = read_wal(dir);
        EXPECT_EQ(result.records.size(), records_through(keep)) << trial;
        EXPECT_FALSE(result.torn_tail) << trial;
        break;
      }
      case 1: {
        // Multi-segment torn tail: drop trailing segments *and* cut into
        // the new final one at a random byte.
        const std::size_t keep = 1 + rng.next() % (paths.size() - 1);
        for (std::size_t i = keep; i < paths.size(); ++i) fs::remove(paths[i]);
        const auto& tail = pristine[keep - 1];
        const std::size_t cut = rng.next() % (tail.size() + 1);
        write_bytes(paths[keep - 1],
                    {tail.begin(),
                     tail.begin() + static_cast<std::ptrdiff_t>(cut)});
        const auto result = read_wal(dir);
        EXPECT_LE(result.records.size(), records_through(keep)) << trial;
        EXPECT_GE(result.records.size(), records_through(keep - 1)) << trial;
        for (std::size_t i = 0; i < result.records.size(); ++i) {
          EXPECT_EQ(result.records[i].type, i + 1);  // a strict prefix
        }
        break;
      }
      case 2: {
        // Cut the final segment exactly on a frame boundary (a perfectly
        // clean crash) or inside its header (a just-rotated crash).
        const auto delta = read_segment_delta(
            paths.back(), segment_index(paths.back()), 0);
        std::vector<std::size_t> boundaries{kSegmentHeaderBytes};
        for (const auto& record : delta.records) {
          boundaries.push_back(static_cast<std::size_t>(
              record.origin_offset + kRecordOverheadBytes +
              record.payload.size()));
        }
        if (rng.next() % 4 == 0) {
          // Header-partial final segment: tolerated, contributes nothing.
          const std::size_t cut = rng.next() % kSegmentHeaderBytes;
          write_bytes(paths.back(),
                      {pristine.back().begin(),
                       pristine.back().begin() +
                           static_cast<std::ptrdiff_t>(cut)});
          const auto result = read_wal(dir);
          EXPECT_EQ(result.records.size(),
                    records_through(paths.size() - 1))
              << trial;
        } else {
          const std::size_t pick = rng.next() % boundaries.size();
          write_bytes(paths.back(),
                      {pristine.back().begin(),
                       pristine.back().begin() +
                           static_cast<std::ptrdiff_t>(boundaries[pick])});
          const auto result = read_wal(dir);
          EXPECT_EQ(result.records.size(),
                    records_through(paths.size() - 1) + pick)
              << trial;
          EXPECT_FALSE(result.torn_tail) << trial;  // boundary cut is clean
        }
        break;
      }
      case 3: {
        // A hole in the middle of the sequence: no crash produces this
        // (compaction deletes strictly oldest-first, which only ever
        // shortens the *front*), so the reader must refuse rather than
        // silently skip records.
        const std::size_t victim = 1 + rng.next() % (paths.size() - 2);
        fs::remove(paths[victim]);
        try {
          read_wal(dir);
          FAIL() << "gap in segment sequence must throw, trial " << trial;
        } catch (const StoreError& e) {
          EXPECT_NE(std::string(e.what()).find("missing WAL segment"),
                    std::string::npos)
              << e.what();
        }
        break;
      }
    }
  }
  restore();
}

// --- fault injection: the short-write / EIO / torn-rename matrix ------------

TEST(FaultInjection, ShortAppendWriteFailsClosedAndReadsBackAsTornTail) {
  const std::string dir = fresh_dir("fault_short_append");
  WalOptions options;
  options.sync_every = 0;
  WalWriter wal(dir, options);
  wal.append(1, "survivor");
  wal.sync();
  {
    support::FaultPlan plan;
    plan.short_write_at = 1;  // the next append's frame write
    plan.short_write_keep = 7;
    support::ScopedFaultPlan guard(plan);
    EXPECT_THROW(wal.append(2, "doomed-record"), StoreError);
    // The writer poisoned itself: the stream held a partial frame.
    EXPECT_THROW(wal.append(3, "already-failed"), StoreError);
    EXPECT_THROW(wal.sync(), StoreError);
  }
  // What landed is a torn tail — recoverable, never corruption.
  const auto result = read_wal(dir);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, 1u);
  EXPECT_TRUE(result.torn_tail);
  // Reopening truncates the tail and the log serves appends again.
  WalWriter healed(dir, options);
  healed.append(4, "after-heal");
  healed.sync();
  const auto after = read_wal(dir);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[1].type, 4u);
  EXPECT_FALSE(after.torn_tail);
}

TEST(FaultInjection, FsyncEioPoisonsTheWriter) {
  const std::string dir = fresh_dir("fault_fsync");
  WalOptions options;
  options.sync_every = 0;
  WalWriter wal(dir, options);
  wal.append(1, "durable");
  wal.sync();
  wal.append(2, "in-flight");
  {
    support::FaultPlan plan;
    plan.fsync_error_at = 1;
    support::ScopedFaultPlan guard(plan);
    // fsyncgate: after EIO "what is durable" is unknowable, so the writer
    // must fail closed rather than carry on.
    EXPECT_THROW(wal.sync(), StoreError);
    EXPECT_THROW(wal.append(3, "rejected"), StoreError);
  }
  // The on-disk file still reads back clean (fail closed, not corrupt).
  const auto result = read_wal(dir);
  EXPECT_GE(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, 1u);
  EXPECT_FALSE(result.torn_tail);
}

TEST(FaultInjection, SnapshotWriteFaultsLeaveTheStoreRecoverable) {
  const auto& fleet = Fleet::instance();
  // Arm plans against compact(): a short write or an fsync EIO on the
  // snapshot temp file must abort compaction with StoreError and leave
  // the previous durable state (full WAL, no/old snapshot) intact.
  struct Arm {
    const char* name;
    support::FaultPlan plan;
  };
  std::vector<Arm> arms(3);
  arms[0].name = "short-write";
  arms[0].plan.short_write_at = 1;  // the snapshot image write
  arms[0].plan.short_write_keep = 9;
  arms[1].name = "fsync-eio";
  // compact()'s WAL group commit consumes fsync #1; #2 is the snapshot's.
  arms[1].plan.fsync_error_at = 2;
  arms[2].name = "rename-eio";
  arms[2].plan.rename_error_at = 1;  // snapshot.bin.tmp -> snapshot.bin

  for (const auto& arm : arms) {
    const std::string dir = fresh_dir(std::string("fault_snap_") + arm.name);
    {
      auto db = VerifierStore::open(dir);
      db->enroll(fleet.devices[0].id, fleet.devices[0].record);
      db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 3, 0xFA57));
      Xoshiro256pp rng(0xA1);
      ASSERT_TRUE(db->authenticate_crp(fleet.devices[0].id,
                                       fleet.devices[0].device->raw_puf(), rng)
                      .has_value());
      db->sync();
      {
        support::ScopedFaultPlan guard(arm.plan);
        EXPECT_THROW(db->compact(), StoreError) << arm.name;
      }
      EXPECT_FALSE(fs::exists(snapshot_path(dir))) << arm.name;
    }
    auto reopened = VerifierStore::open(dir);
    EXPECT_EQ(reopened->crp_remaining(fleet.devices[0].id), std::size_t{2})
        << arm.name;
    EXPECT_TRUE(reopened->registry().contains(fleet.devices[0].id))
        << arm.name;
  }
}

TEST(FaultInjection, TornSnapshotRenameFailsClosedOnReopen) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("fault_snap_torn");
  {
    auto db = VerifierStore::open(dir);
    db->enroll(fleet.devices[0].id, fleet.devices[0].record);
    db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 3, 0x70A2));
    db->sync();
    support::FaultPlan plan;
    plan.torn_rename_at = 1;  // rename lands, data blocks did not
    support::ScopedFaultPlan guard(plan);
    db->compact();  // "succeeds" — the power-loss image is only on disk
  }
  // The snapshot is named but torn, and compaction already deleted the
  // folded WAL — the one state recovery must never invent data from.
  // Refuse to open: fail closed, never half-load.
  EXPECT_TRUE(fs::exists(snapshot_path(dir)));
  EXPECT_THROW(VerifierStore::open(dir), StoreError);
  EXPECT_THROW(recover(dir), StoreError);
}

// --- replication: ship, follow compaction, promote --------------------------

TEST(Replication, ShipMirrorsPrimaryByteForByteThenPromotes) {
  const auto& fleet = Fleet::instance();
  const std::string primary = fresh_dir("repl_primary");
  const std::string follower = fresh_dir("repl_follower");
  constexpr std::size_t kEntries = 4;
  constexpr std::size_t kConsume = 5;
  auto db = VerifierStore::open(primary);
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    db->enroll(fleet.devices[d].id, fleet.devices[d].record);
    db->enroll_crps(fleet.devices[d].id,
                    fleet.collect(d, kEntries, 0x4E90 + d));
  }
  Xoshiro256pp rng(0xB1);
  for (std::size_t k = 0; k < kConsume; ++k) {
    const std::size_t d = k % fleet.devices.size();
    ASSERT_TRUE(db->authenticate_crp(fleet.devices[d].id,
                                     fleet.devices[d].device->raw_puf(), rng)
                    .has_value());
  }
  db->sync();

  ShardFollower repl(primary, follower);
  auto status = repl.ship();
  EXPECT_GT(status.applied_records, 0u);
  EXPECT_GT(status.lag_bytes, 0u);  // it had everything still to ship
  EXPECT_GT(status.shipped_bytes, 0u);
  EXPECT_TRUE(dir_image(primary) == dir_image(follower))
      << "follower is not a byte-for-byte mirror";

  // A quiesced primary ships nothing more; the staleness metric says so.
  status = repl.ship();
  EXPECT_EQ(status.lag_bytes, 0u);

  // Failover: the promoted store serves exactly the primary's state.
  auto promoted = repl.promote();
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    EXPECT_EQ(promoted->crp_remaining(fleet.devices[d].id),
              db->crp_remaining(fleet.devices[d].id));
    EXPECT_TRUE(promoted->registry().contains(fleet.devices[d].id));
  }
  // No consumed CRP resurrected: the promoted store keeps consuming from
  // the primary's cursor, not from the start.
  Xoshiro256pp rng2(0xB2);
  const auto before = *promoted->crp_remaining(fleet.devices[0].id);
  ASSERT_TRUE(promoted
                  ->authenticate_crp(fleet.devices[0].id,
                                     fleet.devices[0].device->raw_puf(), rng2)
                  .has_value());
  EXPECT_EQ(*promoted->crp_remaining(fleet.devices[0].id), before - 1);

  // The follower was consumed by promote().
  EXPECT_THROW(repl.ship(), StoreError);
}

TEST(Replication, ShipFollowsPrimaryCompaction) {
  const auto& fleet = Fleet::instance();
  const std::string primary = fresh_dir("repl_compact_primary");
  const std::string follower = fresh_dir("repl_compact_follower");
  auto db = VerifierStore::open(primary);
  db->enroll(fleet.devices[0].id, fleet.devices[0].record);
  db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 5, 0x5C01));
  Xoshiro256pp rng(0xC1);
  ASSERT_TRUE(db->authenticate_crp(fleet.devices[0].id,
                                   fleet.devices[0].device->raw_puf(), rng)
                  .has_value());
  db->sync();

  ShardFollower repl(primary, follower);
  repl.ship();  // pre-compaction WAL tail
  ASSERT_TRUE(dir_image(primary) == dir_image(follower));

  // Primary compacts, then keeps mutating: the follower must take the
  // snapshot catch-up, drop its folded segments, and ship the new tail.
  db->compact();
  db->enroll(fleet.devices[1].id, fleet.devices[1].record);
  ASSERT_TRUE(db->authenticate_crp(fleet.devices[0].id,
                                   fleet.devices[0].device->raw_puf(), rng)
                  .has_value());
  db->sync();
  const auto status = repl.ship();
  EXPECT_EQ(status.snapshot_copies, 1u);
  EXPECT_GE(status.snapshot_watermark, 1u);
  EXPECT_TRUE(dir_image(primary) == dir_image(follower))
      << "follower did not converge after the primary compacted";

  auto promoted = repl.promote();
  EXPECT_EQ(promoted->crp_remaining(fleet.devices[0].id), std::size_t{3});
  EXPECT_TRUE(promoted->registry().contains(fleet.devices[1].id));
}

TEST(Replication, InjectedShipFailurePoisonsFollowerAndRebuildHeals) {
  const auto& fleet = Fleet::instance();
  const std::string primary = fresh_dir("repl_poison_primary");
  const std::string follower = fresh_dir("repl_poison_follower");
  {
    auto db = VerifierStore::open(primary);
    db->enroll(fleet.devices[0].id, fleet.devices[0].record);
    db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 4, 0x901));
    Xoshiro256pp rng(0xD1);
    ASSERT_TRUE(db->authenticate_crp(fleet.devices[0].id,
                                     fleet.devices[0].device->raw_puf(), rng)
                    .has_value());
    db->sync();
  }
  ShardFollower repl(primary, follower);
  {
    support::FaultPlan plan;
    plan.fsync_error_at = 1;  // the shipped segment's durability fsync
    support::ScopedFaultPlan guard(plan);
    EXPECT_THROW(repl.ship(), StoreError);
  }
  // Poisoned: the cursor can no longer be trusted, even disarmed.
  EXPECT_THROW(repl.ship(), StoreError);

  // The documented recovery: a fresh follower rescans the directory
  // (truncating any torn tail the failed ship left) and converges.
  ShardFollower rebuilt(primary, follower);
  rebuilt.ship();
  EXPECT_TRUE(dir_image(primary) == dir_image(follower));
  auto promoted = rebuilt.promote();
  EXPECT_EQ(promoted->crp_remaining(fleet.devices[0].id), std::size_t{3});
}

TEST(Replication, TornSnapshotCatchUpFailsClosed) {
  const auto& fleet = Fleet::instance();
  const std::string primary = fresh_dir("repl_torn_primary");
  const std::string follower = fresh_dir("repl_torn_follower");
  {
    auto db = VerifierStore::open(primary);
    db->enroll(fleet.devices[0].id, fleet.devices[0].record);
    db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 4, 0x70B));
    db->compact();  // the primary has a snapshot for the follower to copy
  }
  ShardFollower repl(primary, follower);
  {
    support::FaultPlan plan;
    plan.torn_rename_at = 1;  // the follower's snapshot copy lands torn
    support::ScopedFaultPlan guard(plan);
    EXPECT_THROW(repl.ship(), StoreError);
  }
  // The torn follower snapshot must be refused, not half-loaded — by a
  // rebuilt follower and by promotion alike.
  EXPECT_THROW(ShardFollower(primary, follower), StoreError);
  EXPECT_THROW(recover(follower), StoreError);
  // Wiping the follower directory rebuilds from scratch and converges.
  fs::remove_all(follower);
  ShardFollower rebuilt(primary, follower);
  rebuilt.ship();
  auto promoted = rebuilt.promote();
  EXPECT_EQ(promoted->crp_remaining(fleet.devices[0].id), std::size_t{4});
}

// --- the kill-anywhere failover property ------------------------------------

// Randomized kill points over a real store workload (enroll, consume,
// compact, consume): at *every* cut the crash image ships to a follower
// whose promotion is byte-identical to recovering the primary directly,
// and remaining() agrees exactly.  This is the acceptance property the
// torture binary (tests/store_torture.cpp) runs at scale.
TEST(Replication, KillAnywhereFailoverMatchesPrimaryRecovery) {
  const auto& fleet = Fleet::instance();
  auto workload = [&](const std::string& dir) {
    StoreOptions options;
    options.wal.segment_bytes = 1024;  // rotate within the workload
    options.wal.sync_every = 4;
    auto db = VerifierStore::open(dir, options);
    for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
      db->enroll(fleet.devices[d].id, fleet.devices[d].record);
      db->enroll_crps(fleet.devices[d].id, fleet.collect(d, 5, 0xFA11 + d));
    }
    Xoshiro256pp rng(0xAB);
    for (int k = 0; k < 4; ++k) {
      (void)db->authenticate_crp(fleet.devices[k % fleet.devices.size()].id,
                                 fleet.devices[k % fleet.devices.size()]
                                     .device->raw_puf(),
                                 rng);
    }
    db->compact();
    for (int k = 0; k < 5; ++k) {
      (void)db->authenticate_crp(fleet.devices[k % fleet.devices.size()].id,
                                 fleet.devices[k % fleet.devices.size()]
                                     .device->raw_puf(),
                                 rng);
    }
    db->sync();
  };

  // Probe run: learn the workload's total byte budget so kill points can
  // be drawn from the whole execution, compaction included.
  std::uint64_t total_bytes = 0;
  {
    const std::string dir = fresh_dir("kill_probe");
    support::FaultPlan plan;
    plan.crash_after_bytes = ~std::uint64_t{0};  // never fires: just counts
    support::ScopedFaultPlan guard(plan);
    workload(dir);
    total_bytes = support::FaultyFile::instance().bytes_written();
  }
  ASSERT_GT(total_bytes, 1024u);

  Xoshiro256pp rng(0x60D);
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint64_t kill = 1 + rng.next() % total_bytes;
    const std::string primary =
        fresh_dir("kill_primary_" + std::to_string(trial));
    const std::string follower =
        fresh_dir("kill_follower_" + std::to_string(trial));
    {
      support::FaultPlan plan;
      plan.crash_after_bytes = kill;
      support::ScopedFaultPlan guard(plan);
      workload(primary);  // the process "runs on"; the disk stops at K
    }
    ShardFollower(primary, follower).ship();
    const auto primary_state = serialize_recovered(primary);
    const auto follower_state = serialize_recovered(follower);
    EXPECT_EQ(primary_state.first, follower_state.first)
        << "registry diverged, kill at byte " << kill;
    EXPECT_EQ(primary_state.second, follower_state.second)
        << "ledger diverged, kill at byte " << kill;

    // remaining() exact: promotion and direct primary recovery agree
    // device by device — no CRP consumed twice, none resurrected.
    auto promoted = ShardFollower(primary, follower).promote();
    auto direct = VerifierStore::open(primary);
    for (const auto& dev : fleet.devices) {
      EXPECT_EQ(promoted->crp_remaining(dev.id), direct->crp_remaining(dev.id))
          << "kill at byte " << kill << ", device " << dev.id;
      EXPECT_EQ(promoted->registry().contains(dev.id),
                direct->registry().contains(dev.id))
          << "kill at byte " << kill << ", device " << dev.id;
    }
  }
}

// --- sharded store ----------------------------------------------------------

TEST(ShardedStore, RoutesRecoversInParallelAndServesThePool) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("sharded");
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kEntries = 4;
  constexpr std::size_t kConsume = 5;
  {
    ShardedStoreOptions options;
    options.shards = kShards;
    options.recovery_threads = kShards;
    auto db = ShardedVerifierStore::open(dir, options);
    EXPECT_EQ(db->shard_count(), kShards);
    for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
      EXPECT_TRUE(db->enroll(fleet.devices[d].id, fleet.devices[d].record));
      db->enroll_crps(fleet.devices[d].id,
                      fleet.collect(d, kEntries, 0x5A4D + d));
      // Routing is the platform-stable hash the registry stripes by.
      EXPECT_EQ(db->shard_of(fleet.devices[d].id),
                service::stable_device_hash(fleet.devices[d].id) % kShards);
    }
    Xoshiro256pp rng(0xE1);
    for (std::size_t k = 0; k < kConsume; ++k) {
      const std::size_t d = k % fleet.devices.size();
      ASSERT_TRUE(db->authenticate_crp(fleet.devices[d].id,
                                       fleet.devices[d].device->raw_puf(), rng)
                      .has_value());
    }
    EXPECT_EQ(db->device_count(), fleet.devices.size());
    EXPECT_EQ(db->total_crp_remaining(),
              fleet.devices.size() * kEntries - kConsume);
    db->sync();
  }
  ASSERT_TRUE(fs::exists(ShardedVerifierStore::manifest_path(dir)));

  // Reopen letting the manifest decide the count; per-shard recovery ran
  // in parallel and every cursor came back exact.
  ShardedStoreOptions reopen;
  reopen.shards = 0;
  auto recovered = ShardedVerifierStore::open(dir, reopen);
  EXPECT_EQ(recovered->shard_count(), kShards);
  EXPECT_EQ(recovered->device_count(), fleet.devices.size());
  EXPECT_EQ(recovered->total_crp_remaining(),
            fleet.devices.size() * kEntries - kConsume);
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    const std::size_t consumed =
        kConsume / fleet.devices.size() +
        (d < kConsume % fleet.devices.size() ? 1 : 0);
    EXPECT_EQ(recovered->crp_remaining(fleet.devices[d].id),
              kEntries - consumed);
  }

  // The manifest pins N forever: hash % N routing makes any other count
  // look up every device in the wrong shard.
  ShardedStoreOptions wrong;
  wrong.shards = 2;
  EXPECT_THROW(ShardedVerifierStore::open(dir, wrong), StoreError);

  // The service layer runs against the routing view, indifferent to the
  // partitioning: a full pool round-trip over all shards.
  service::EmulatorCache cache(recovered->registry_view(), code(),
                               fleet.devices.size());
  std::atomic<std::size_t> accepted{0};
  service::PoolConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.on_drain = [&] { recovered->sync(); };
  service::VerifierPool pool(cache, config,
                             [&](const service::JobResult& result) {
                               if (result.outcome ==
                                   service::JobOutcome::kAccepted) {
                                 accepted.fetch_add(1);
                               }
                             });
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    service::AttestationJob job;
    job.device_id = fleet.devices[d].id;
    job.responder = fleet.responder(d, 0xE2 + d);
    job.channel_seed = 0xE3 + d;
    job.rng_seed = 0xE4 + d;
    job.tag = d;
    ASSERT_TRUE(pool.submit(job).enqueued());
  }
  pool.drain();
  pool.shutdown();
  EXPECT_EQ(accepted.load(), fleet.devices.size());

  // Per-shard compaction round-trips too.
  recovered->compact();
  recovered.reset();
  auto again = ShardedVerifierStore::open(dir, reopen);
  EXPECT_EQ(again->device_count(), fleet.devices.size());
  EXPECT_EQ(again->total_crp_remaining(),
            fleet.devices.size() * kEntries - kConsume);
}

TEST(ShardedStore, PublishMetricsExportsPerShardOccupancyGauges) {
  const auto& fleet = Fleet::instance();
  const std::string dir = fresh_dir("sharded_gauges");
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kEntries = 3;
  ShardedStoreOptions options;
  options.shards = kShards;
  auto db = ShardedVerifierStore::open(dir, options);
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    ASSERT_TRUE(db->enroll(fleet.devices[d].id, fleet.devices[d].record));
    db->enroll_crps(fleet.devices[d].id,
                    fleet.collect(d, kEntries, 0x6A4D + d));
  }

  obs::MetricRegistry registry;
  db->publish_metrics(registry);
  EXPECT_EQ(registry.gauge("store.shards").value(),
            static_cast<double>(kShards));
  double devices = 0.0, crps = 0.0;
  for (std::size_t i = 0; i < kShards; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "store.shard%04zu.devices", i);
    const double shard_devices = registry.gauge(name).value();
    EXPECT_EQ(shard_devices, static_cast<double>(db->shard(i).registry().size()))
        << "shard " << i;
    devices += shard_devices;
    std::snprintf(name, sizeof(name), "store.shard%04zu.crp_remaining", i);
    crps += registry.gauge(name).value();
  }
  // The per-shard gauges reconcile exactly with the whole-store aggregates.
  EXPECT_EQ(devices, static_cast<double>(db->device_count()));
  EXPECT_EQ(crps, static_cast<double>(db->total_crp_remaining()));

  // Refresh after mutation: gauges track, names stay fixed (the stats
  // frame's "registry" section depends on that stability).
  Xoshiro256pp rng(0x6B);
  ASSERT_TRUE(db->authenticate_crp(fleet.devices[0].id,
                                   fleet.devices[0].device->raw_puf(), rng)
                  .has_value());
  db->publish_metrics(registry);
  double crps_after = 0.0;
  for (std::size_t i = 0; i < kShards; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "store.shard%04zu.crp_remaining", i);
    crps_after += registry.gauge(name).value();
  }
  EXPECT_EQ(crps_after, crps - 1.0);
  EXPECT_NE(registry.snapshot_json().find("store.shard0000.devices"),
            std::string::npos);
}

TEST(Replication, ShardedReplicaShipsAndPromotesWholeFleet) {
  const auto& fleet = Fleet::instance();
  const std::string primary = fresh_dir("sharded_repl_primary");
  const std::string follower = fresh_dir("sharded_repl_follower");
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kEntries = 3;
  constexpr std::size_t kConsume = 4;
  ShardedStoreOptions options;
  options.shards = kShards;
  auto db = ShardedVerifierStore::open(primary, options);
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    db->enroll(fleet.devices[d].id, fleet.devices[d].record);
    db->enroll_crps(fleet.devices[d].id,
                    fleet.collect(d, kEntries, 0x2E91 + d));
  }
  Xoshiro256pp rng(0xF1);
  for (std::size_t k = 0; k < kConsume; ++k) {
    const std::size_t d = k % fleet.devices.size();
    ASSERT_TRUE(db->authenticate_crp(fleet.devices[d].id,
                                     fleet.devices[d].device->raw_puf(), rng)
                    .has_value());
  }
  db->sync();

  StoreReplica replica(primary, follower);
  EXPECT_EQ(replica.shard_count(), kShards);
  const auto statuses = replica.ship();
  ASSERT_EQ(statuses.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_TRUE(dir_image(ShardedVerifierStore::shard_dir(primary, i)) ==
                dir_image(ShardedVerifierStore::shard_dir(follower, i)))
        << "shard " << i << " is not a byte-for-byte mirror";
  }

  auto promoted = replica.promote();
  EXPECT_EQ(promoted->shard_count(), kShards);
  EXPECT_EQ(promoted->device_count(), fleet.devices.size());
  EXPECT_EQ(promoted->total_crp_remaining(),
            fleet.devices.size() * kEntries - kConsume);
  for (const auto& dev : fleet.devices) {
    EXPECT_EQ(promoted->crp_remaining(dev.id), db->crp_remaining(dev.id));
  }

  // A replica of a plain (unsharded) directory is refused up front.
  EXPECT_THROW(StoreReplica(fresh_dir("not_sharded"),
                            fresh_dir("not_sharded_follower")),
               StoreError);
}

}  // namespace
}  // namespace pufatt::store
