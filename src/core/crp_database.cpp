#include "core/crp_database.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/serialize.hpp"

namespace pufatt::core {

namespace {

// Little-endian primitives, matching core/serialize's record format.
constexpr std::uint32_t kCrpMagic = 0x50435244;  // "PCRD"
constexpr std::uint32_t kCrpVersion = 1;
constexpr std::uint32_t kMaxCrpEntries = 1u << 20;
constexpr std::uint32_t kMaxCrpBits = 1u << 16;

void write_u32(std::ostream& out, std::uint32_t v) {
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  out.write(reinterpret_cast<const char*>(bytes), 4);
}

std::uint32_t read_u32(std::istream& in) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  if (!in) throw SerializationError("CrpDatabase: unexpected end of input");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
  }
  return v;
}

void write_bits(std::ostream& out, const support::BitVector& v) {
  write_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const auto word : v.words()) {
    write_u32(out, static_cast<std::uint32_t>(word));
    write_u32(out, static_cast<std::uint32_t>(word >> 32));
  }
}

support::BitVector read_bits(std::istream& in) {
  const std::uint32_t bits = read_u32(in);
  if (bits > kMaxCrpBits) {
    throw SerializationError("CrpDatabase: bit vector too large");
  }
  support::BitVector v(bits);
  const std::size_t words = (bits + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t lo = read_u32(in);
    const std::uint64_t hi = read_u32(in);
    v.set_word(w, lo | (hi << 32));  // masks bits past `bits`
  }
  return v;
}

}  // namespace

CrpDatabase CrpDatabase::collect(const alupuf::AluPuf& device,
                                 std::size_t count,
                                 support::Xoshiro256pp& rng,
                                 std::size_t challenges_per_entry) {
  CrpDatabase db;
  db.entries_.reserve(count);
  const auto env = variation::Environment::nominal();
  for (std::size_t i = 0; i < count; ++i) {
    Entry entry;
    entry.challenges.reserve(challenges_per_entry);
    for (std::size_t c = 0; c < challenges_per_entry; ++c) {
      entry.challenges.push_back(
          support::BitVector::random(device.challenge_bits(), rng));
    }
    entry.references = device.eval_batch(entry.challenges.data(),
                                         challenges_per_entry, env, rng);
    db.entries_.push_back(std::move(entry));
  }
  return db;
}

CrpDatabase::AuthResult CrpDatabase::authenticate(
    const alupuf::AluPuf& device, support::Xoshiro256pp& rng,
    double threshold_fraction, const variation::Environment& env) {
  const auto index = claim();
  if (!index) {
    AuthResult result;
    result.exhausted = true;
    return result;
  }
  return judge(*index, device, rng, threshold_fraction, env);
}

std::optional<std::size_t> CrpDatabase::claim() {
  if (next_unused_ >= entries_.size()) return std::nullopt;
  return next_unused_++;
}

CrpDatabase::AuthResult CrpDatabase::judge(
    std::size_t index, const alupuf::AluPuf& device,
    support::Xoshiro256pp& rng, double threshold_fraction,
    const variation::Environment& env) const {
  const Entry& entry = entries_.at(index);
  const auto responses = device.eval_batch(entry.challenges.data(),
                                           entry.challenges.size(), env, rng);
  AuthResult result;
  for (std::size_t c = 0; c < responses.size(); ++c) {
    result.distance += responses[c].hamming_distance(entry.references[c]);
    result.compared_bits += responses[c].size();
  }
  result.accepted =
      static_cast<double>(result.distance) <=
      threshold_fraction * static_cast<double>(result.compared_bits);
  return result;
}

void CrpDatabase::mark_consumed_through(std::size_t index) {
  if (index >= entries_.size()) {
    throw std::out_of_range("CrpDatabase: consume marker past the last entry");
  }
  next_unused_ = std::max(next_unused_, index + 1);
}

void CrpDatabase::save(std::ostream& out) const {
  write_u32(out, kCrpMagic);
  write_u32(out, kCrpVersion);
  write_u32(out, static_cast<std::uint32_t>(entries_.size()));
  write_u32(out, static_cast<std::uint32_t>(next_unused_));
  for (const auto& entry : entries_) {
    write_u32(out, static_cast<std::uint32_t>(entry.challenges.size()));
    for (std::size_t c = 0; c < entry.challenges.size(); ++c) {
      write_bits(out, entry.challenges[c]);
      write_bits(out, entry.references[c]);
    }
  }
  if (!out) throw SerializationError("CrpDatabase: write failed");
}

CrpDatabase CrpDatabase::load(std::istream& in) {
  if (read_u32(in) != kCrpMagic) {
    throw SerializationError("CrpDatabase: bad magic");
  }
  if (read_u32(in) != kCrpVersion) {
    throw SerializationError("CrpDatabase: unsupported version");
  }
  const std::uint32_t count = read_u32(in);
  if (count > kMaxCrpEntries) {
    throw SerializationError("CrpDatabase: entry count too large");
  }
  const std::uint32_t cursor = read_u32(in);
  if (cursor > count) {
    throw SerializationError("CrpDatabase: consume cursor past the end");
  }
  CrpDatabase db;
  db.entries_.resize(count);
  for (auto& entry : db.entries_) {
    const std::uint32_t challenges = read_u32(in);
    if (challenges > kMaxCrpEntries) {
      throw SerializationError("CrpDatabase: entry too large");
    }
    entry.challenges.reserve(challenges);
    entry.references.reserve(challenges);
    for (std::uint32_t c = 0; c < challenges; ++c) {
      entry.challenges.push_back(read_bits(in));
      entry.references.push_back(read_bits(in));
    }
  }
  db.next_unused_ = cursor;
  return db;
}

std::size_t CrpDatabase::storage_bytes() const {
  if (entries_.empty()) return 0;
  std::size_t bits = 0;
  for (std::size_t c = 0; c < entries_.front().challenges.size(); ++c) {
    bits += entries_.front().challenges[c].size() +
            entries_.front().references[c].size();
  }
  return entries_.size() * ((bits + 7) / 8);
}

}  // namespace pufatt::core
