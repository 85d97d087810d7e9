#include "alupuf/obfuscation.hpp"

#include <array>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/rng.hpp"

namespace pufatt::alupuf {

using support::BitVector;

ObfuscationNetwork::ObfuscationNetwork(std::size_t response_bits,
                                       Pairing pairing)
    : two_n_(response_bits), pairing_(pairing) {
  if (response_bits == 0 || response_bits % 2 != 0) {
    throw std::invalid_argument(
        "ObfuscationNetwork: response width must be even (2n)");
  }
  const std::size_t n = two_n_ / 2;
  pairs_.reserve(n);
  if (pairing_ == Pairing::kPaper) {
    for (std::size_t i = 0; i < n; ++i) pairs_.emplace_back(i, i + n);
  } else {
    // Fixed pseudorandom matching (same on device and verifier): a
    // Fisher-Yates shuffle from a compile-time constant seed.
    std::vector<std::size_t> perm(two_n_);
    std::iota(perm.begin(), perm.end(), 0);
    support::Xoshiro256pp rng(0x0BF5'CA7E0ULL + two_n_);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.uniform_u64(i)]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      pairs_.emplace_back(perm[2 * k], perm[2 * k + 1]);
    }
  }
  if (two_n_ <= 32) {
    // Every response bit sits in exactly one pair, so it lands on exactly
    // one fold bit; a nibble's table entry XORs its set bits' landing spots.
    std::array<std::uint16_t, 32> lands_on{};
    for (std::size_t k = 0; k < n; ++k) {
      lands_on[pairs_[k].first] ^= static_cast<std::uint16_t>(1u << k);
      lands_on[pairs_[k].second] ^= static_cast<std::uint16_t>(1u << k);
    }
    const std::size_t nibbles = (two_n_ + 3) / 4;
    fold_table_.assign(nibbles * 16, 0);
    for (std::size_t k = 0; k < nibbles; ++k) {
      for (std::size_t v = 0; v < 16; ++v) {
        for (std::size_t bit = 0; bit < 4 && 4 * k + bit < two_n_; ++bit) {
          if ((v >> bit) & 1u) fold_table_[k * 16 + v] ^= lands_on[4 * k + bit];
        }
      }
    }
  }
}

BitVector ObfuscationNetwork::fold(const BitVector& response) const {
  if (response.size() != two_n_) {
    throw std::invalid_argument("ObfuscationNetwork::fold: wrong width");
  }
  BitVector folded(two_n_ / 2);
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    folded.set(k,
               response.get(pairs_[k].first) != response.get(pairs_[k].second));
  }
  return folded;
}

namespace {

/// Left-rotation of a BitVector (word width arbitrary).
BitVector rotl_bits(const BitVector& v, std::size_t k) {
  BitVector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.set((i + k) % v.size(), v.get(i));
  }
  return out;
}

}  // namespace

BitVector ObfuscationNetwork::obfuscate(
    const std::array<BitVector, kResponsesPerOutput>& responses) const {
  BitVector z(two_n_);
  for (std::size_t j = 0; j < 4; ++j) {
    // b_j = fold(y_{2j}) || fold(y_{2j+1}), low half first.
    BitVector b = fold(responses[2 * j]).concat(fold(responses[2 * j + 1]));
    if (pairing_ == Pairing::kHardened) {
      // Rotate each word by a distinct amount before the phase-2 XOR so
      // identical per-response error patterns cannot cancel pairwise (the
      // second half of the degeneracy fix; see the Pairing doc comment).
      b = rotl_bits(b, 5 * j);
    }
    z ^= b;
  }
  return z;
}

std::uint32_t ObfuscationNetwork::fold_word(std::uint32_t response) const {
  std::uint32_t folded = 0;
  for (std::size_t k = 0; k * 16 < fold_table_.size(); ++k) {
    folded ^= fold_table_[k * 16 + ((response >> (4 * k)) & 0xFu)];
  }
  return folded;
}

std::uint32_t ObfuscationNetwork::obfuscate_words(
    const std::array<std::uint32_t, kResponsesPerOutput>& responses) const {
  if (fold_table_.empty()) {
    throw std::logic_error(
        "ObfuscationNetwork::obfuscate_words: responses wider than 32 bits");
  }
  const std::size_t n = two_n_ / 2;
  const std::uint64_t mask = (std::uint64_t{1} << two_n_) - 1;
  std::uint32_t z = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    std::uint64_t b = fold_word(responses[2 * j]) |
                      (std::uint64_t{fold_word(responses[2 * j + 1])} << n);
    if (pairing_ == Pairing::kHardened) {
      const std::size_t k = (5 * j) % two_n_;  // rotl_bits, on a word
      b = ((b << k) | (b >> (two_n_ - k))) & mask;
    }
    z ^= static_cast<std::uint32_t>(b);
  }
  return z;
}

}  // namespace pufatt::alupuf
