#include "ecc/reed_muller.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace pufatt::ecc {

using support::BitVector;

namespace {

/// In-place fast Walsh-Hadamard transform of a[0..n).
template <typename T>
void fwht(T* a, std::size_t n) {
  for (std::size_t h = 1; h < n; h *= 2) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      for (std::size_t j = i; j < i + h; ++j) {
        const T x = a[j];
        const T y = a[j + h];
        a[j] = x + y;
        a[j + h] = x - y;
      }
    }
  }
}

}  // namespace

ReedMuller1::ReedMuller1(unsigned m) : m_(m), n_(std::size_t{1} << m) {
  if (m < 2 || m > 16) {
    throw std::invalid_argument("ReedMuller1: m must be in [2,16]");
  }
  // Generator matrix rows: all-ones (u0) plus the m "coordinate" rows.
  Gf2Matrix gen(k(), n());
  for (std::size_t i = 0; i < n_; ++i) gen.set(0, i, true);
  for (unsigned b = 0; b < m_; ++b) {
    for (std::size_t i = 0; i < n_; ++i) {
      if ((i >> b) & 1u) gen.set(b + 1, i, true);
    }
  }
  parity_check_ = parity_from_generator(gen);
  if (m_ <= 5) {
    for (std::size_t l = 0; l < n_; ++l) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (std::popcount(l & i) & 1) linear_words_[l] |= std::uint32_t{1} << i;
      }
    }
  }
}

BitVector ReedMuller1::encode(const BitVector& message) const {
  if (message.size() != k()) {
    throw std::invalid_argument("ReedMuller1::encode: wrong message length");
  }
  const bool u0 = message.get(0);
  std::uint32_t linear = 0;
  for (unsigned b = 0; b < m_; ++b) {
    if (message.get(b + 1)) linear |= (1u << b);
  }
  BitVector cw(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const bool dot =
        (std::popcount(linear & static_cast<std::uint32_t>(i)) & 1) != 0;
    cw.set(i, u0 != dot);
  }
  return cw;
}

BitVector ReedMuller1::decode_message(const BitVector& word) const {
  if (word.size() != n_) {
    throw std::invalid_argument("ReedMuller1::decode: wrong word length");
  }
  // +1 / -1 map, then Hadamard transform: the peak index is the linear
  // part, the peak sign is the affine constant.
  std::vector<int> f(n_);
  for (std::size_t i = 0; i < n_; ++i) f[i] = word.get(i) ? -1 : 1;
  fwht(f.data(), f.size());
  std::size_t best = 0;
  int best_mag = std::abs(f[0]);
  for (std::size_t i = 1; i < n_; ++i) {
    if (std::abs(f[i]) > best_mag) {
      best_mag = std::abs(f[i]);
      best = i;
    }
  }
  BitVector msg(k());
  msg.set(0, f[best] < 0);
  for (unsigned b = 0; b < m_; ++b) msg.set(b + 1, ((best >> b) & 1u) != 0);
  return msg;
}

std::optional<BitVector> ReedMuller1::decode_to_codeword(
    const BitVector& word) const {
  return encode(decode_message(word));
}

std::optional<BitVector> ReedMuller1::decode(const BitVector& word) const {
  return decode_message(word);
}

std::optional<BitVector> ReedMuller1::decode_soft_to_codeword(
    const std::vector<double>& llr) const {
  if (llr.size() != n_) {
    throw std::invalid_argument("ReedMuller1::decode_soft: wrong length");
  }
  std::vector<double> f = llr;  // positive = bit 0, as encoded codeword +1
  fwht(f.data(), f.size());
  std::size_t best = 0;
  double best_mag = std::abs(f[0]);
  for (std::size_t i = 1; i < n_; ++i) {
    if (std::abs(f[i]) > best_mag) {
      best_mag = std::abs(f[i]);
      best = i;
    }
  }
  BitVector msg(k());
  msg.set(0, f[best] < 0.0);
  for (unsigned b = 0; b < m_; ++b) msg.set(b + 1, ((best >> b) & 1u) != 0);
  return encode(msg);
}

namespace {

/// decode_soft_word's body for n = N: constant bounds let the compiler
/// unroll the butterflies and the peak scan.  The scan keeps the generic
/// decoder's rule (strict >, so the first maximum wins), branch-free.
template <std::size_t N>
std::size_t soft_peak(double* f) {
  fwht(f, N);
  std::size_t best = 0;
  double best_mag = std::abs(f[0]);
  for (std::size_t i = 1; i < N; ++i) {
    const double mag = std::abs(f[i]);
    const bool higher = mag > best_mag;
    best_mag = higher ? mag : best_mag;
    best = higher ? i : best;
  }
  return best;
}

}  // namespace

std::uint32_t ReedMuller1::decode_soft_word(
    std::array<double, 32>& llr) const {
  std::size_t best = 0;
  switch (m_) {
    case 2: best = soft_peak<4>(llr.data()); break;
    case 3: best = soft_peak<8>(llr.data()); break;
    case 4: best = soft_peak<16>(llr.data()); break;
    case 5: best = soft_peak<32>(llr.data()); break;
    default:
      throw std::logic_error("ReedMuller1::decode_soft_word: m > 5");
  }
  const std::uint32_t ones =
      static_cast<std::uint32_t>((std::uint64_t{1} << n_) - 1);
  return linear_words_[best] ^ (llr[best] < 0.0 ? ones : 0u);
}

int ReedMuller1::correlation_peak(const BitVector& word) const {
  std::vector<int> f(n_);
  for (std::size_t i = 0; i < n_; ++i) f[i] = word.get(i) ? -1 : 1;
  fwht(f.data(), f.size());
  int best = 0;
  for (const auto v : f) best = std::max(best, std::abs(v));
  return best;
}

}  // namespace pufatt::ecc
