#include "store/crp_ledger.hpp"

#include <istream>
#include <ostream>
#include <utility>

#include "core/serialize.hpp"
#include "store/records.hpp"
#include "store/wal.hpp"

namespace pufatt::store {

namespace {

constexpr std::uint32_t kLedgerMagic = 0x47444C50;  // "PLDG"
constexpr std::uint32_t kLedgerVersion = 1;
constexpr std::uint32_t kMaxLedgerDevices = 1u << 20;

void write_u32(std::ostream& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(bytes, 4);
}

std::uint32_t read_u32(std::istream& in) {
  char bytes[4];
  in.read(bytes, 4);
  if (!in) throw StoreError("truncated CRP ledger");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

CrpLedger::CrpLedger(WalWriter* wal, Options options)
    : wal_(wal), options_(std::move(options)) {}

void CrpLedger::enroll(const std::string& device_id, core::CrpDatabase db) {
  // Log-before-apply: the enrollment is in the WAL buffer before the
  // in-memory map ever serves it.  The append happens under the lock that
  // consume markers are appended under, so WAL order is apply order: an
  // unlocked append could land before the marker of a concurrent consume
  // of the database it replaces, and replay would charge that consume to
  // the new database.
  std::string record;
  if (wal_ != nullptr) record = encode_crp_enroll(device_id, db);
  Slot slot;
  slot.db = std::make_shared<core::CrpDatabase>(std::move(db));
  std::lock_guard<std::mutex> lock(mutex_);
  if (wal_ != nullptr) wal_->append(kCrpEnroll, record);
  slot.low_notified = slot.db->remaining() <= options_.low_watermark;
  slots_.insert_or_assign(device_id, std::move(slot));
}

bool CrpLedger::erase(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.erase(device_id) > 0;
}

std::optional<CrpLedger::LowWatermark> CrpLedger::check_watermark_locked(
    const std::string& device_id) {
  auto it = slots_.find(device_id);
  if (it == slots_.end()) return std::nullopt;
  const std::size_t remaining = it->second.db->remaining();
  if (remaining > options_.low_watermark) {
    it->second.low_notified = false;  // replenished: re-arm
    return std::nullopt;
  }
  if (it->second.low_notified || !options_.on_low) return std::nullopt;
  it->second.low_notified = true;
  return LowWatermark{device_id, remaining};
}

std::optional<core::CrpDatabase::AuthResult> CrpLedger::authenticate(
    const std::string& device_id, const alupuf::AluPuf& device,
    support::Xoshiro256pp& rng, double threshold_fraction,
    const variation::Environment& env,
    std::optional<LowWatermark>* low_out) {
  std::shared_ptr<const core::CrpDatabase> db;
  std::optional<std::size_t> index;
  std::optional<LowWatermark> low;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(device_id);
    if (it == slots_.end()) return std::nullopt;
    index = it->second.db->claim();
    if (index) {
      // Marker before any evaluation: the entry is spent in memory and in
      // the WAL buffer together, whatever the judgement below does.
      if (wal_ != nullptr) {
        wal_->append(kCrpConsume, encode_crp_consume(device_id, *index));
      }
      low = check_watermark_locked(device_id);
      db = it->second.db;  // keeps the entry alive across a re-enroll
    }
  }
  if (low_out != nullptr) {
    // The caller holds an outer lock of its own (the VerifierStore
    // facade): hand the notification over so it fires only after that
    // lock is released — never inline, where a replenishing hook would
    // re-enter the facade and self-deadlock.
    *low_out = std::move(low);
  } else if (low) {
    // Outside the ledger lock: the hook may re-enter enroll() directly.
    options_.on_low(low->device_id, low->remaining);
  }
  if (!index) {
    core::CrpDatabase::AuthResult exhausted;
    exhausted.exhausted = true;
    return exhausted;
  }
  return db->judge(*index, device, rng, threshold_fraction, env);
}

std::optional<std::size_t> CrpLedger::remaining(
    const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(device_id);
  if (it == slots_.end()) return std::nullopt;
  return it->second.db->remaining();
}

bool CrpLedger::contains(const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.count(device_id) > 0;
}

std::size_t CrpLedger::device_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

std::size_t CrpLedger::total_remaining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [id, slot] : slots_) total += slot.db->remaining();
  return total;
}

std::vector<std::string> CrpLedger::device_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) ids.push_back(id);
  return ids;  // std::map iteration order: already sorted
}

void CrpLedger::replay_enroll(const std::string& device_id,
                              core::CrpDatabase db) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot slot;
  slot.db = std::make_shared<core::CrpDatabase>(std::move(db));
  slot.low_notified = slot.db->remaining() <= options_.low_watermark;
  slots_.insert_or_assign(device_id, std::move(slot));
}

void CrpLedger::replay_erase(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.erase(device_id);
}

void CrpLedger::replay_consume(const std::string& device_id,
                               std::uint64_t entry_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(device_id);
  if (it == slots_.end()) {
    throw StoreError("WAL consume marker for a device with no CRP database: " +
                     device_id);
  }
  try {
    it->second.db->mark_consumed_through(static_cast<std::size_t>(entry_index));
  } catch (const std::out_of_range&) {
    throw StoreError("WAL consume marker past the database for " + device_id);
  }
  it->second.low_notified =
      it->second.db->remaining() <= options_.low_watermark;
}

void CrpLedger::save(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  write_u32(out, kLedgerMagic);
  write_u32(out, kLedgerVersion);
  write_u32(out, static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [id, slot] : slots_) {  // sorted: byte-stable
    write_u32(out, static_cast<std::uint32_t>(id.size()));
    out.write(id.data(), static_cast<std::streamsize>(id.size()));
    slot.db->save(out);
  }
  if (!out) throw StoreError("CRP ledger write failed");
}

void CrpLedger::load_into(std::istream& in, CrpLedger& ledger) {
  if (read_u32(in) != kLedgerMagic) throw StoreError("bad CRP ledger magic");
  if (read_u32(in) != kLedgerVersion) {
    throw StoreError("unsupported CRP ledger version");
  }
  const std::uint32_t count = read_u32(in);
  if (count > kMaxLedgerDevices) {
    throw StoreError("CRP ledger device count exceeds sanity bound");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t len = read_u32(in);
    if (len > kMaxDeviceIdBytes) {
      throw StoreError("CRP ledger device id exceeds sanity bound");
    }
    std::string id(len, '\0');
    in.read(id.data(), static_cast<std::streamsize>(len));
    if (!in) throw StoreError("truncated CRP ledger");
    core::CrpDatabase db;
    try {
      db = core::CrpDatabase::load(in);
    } catch (const core::SerializationError& e) {
      throw StoreError(std::string("bad CRP database in ledger: ") + e.what());
    }
    ledger.replay_enroll(id, std::move(db));
  }
}

}  // namespace pufatt::store
