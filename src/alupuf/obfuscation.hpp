// The paper's two-phase XOR obfuscation network (Section 2, "Response
// Obfuscation"), functional model.
//
// Phase 1: fold each 2n-bit response y_r to n bits, a_r[i] = y_r[i] XOR
// y_r[i+n]; concatenate pairs into four 2n-bit words b_j = a_{2j}||a_{2j+1}.
// Phase 2: z = b_0 XOR b_1 XOR b_2 XOR b_3.
//
// One obfuscated output therefore consumes kResponsesPerOutput = 8 raw PUF
// responses, which is why a single logical PUF() call in the attestation
// protocol triggers eight physical ALU races.
//
// Two forms compute the same network: `obfuscate` over BitVectors (any
// even width; the exactness oracle) and `obfuscate_words` over uint32_t
// responses (width <= 32; the PUF() call on both protocol sides), whose
// fold is a precomputed per-nibble table.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/bitvec.hpp"

namespace pufatt::alupuf {

class ObfuscationNetwork {
 public:
  static constexpr std::size_t kResponsesPerOutput = 8;

  /// Phase-1 bit pairing.
  ///
  /// kPaper pairs bit i with bit i+n, exactly as the paper specifies.
  /// Combined with RM(1,5) helper data this pairing is *degenerate*: every
  /// RM(1,5) codeword c satisfies c[i] XOR c[i+n] = const, and every
  /// helper-data reconstruction error is a codeword, so reconstruction
  /// errors fold to all-zero/all-one blocks that frequently cancel in
  /// phase 2 — a verification blind spot we found during reproduction
  /// (DESIGN.md section 6, EXPERIMENTS.md).
  ///
  /// kHardened pairs bits under a fixed pseudorandom matching, so a
  /// codeword error folds to a nonconstant pattern and any reconstruction
  /// error scrambles z.  The attestation pipeline defaults to kHardened;
  /// the figure-reproduction benches use kPaper.
  enum class Pairing { kPaper, kHardened };

  /// `response_bits` (= 2n) must be even.
  explicit ObfuscationNetwork(std::size_t response_bits,
                              Pairing pairing = Pairing::kPaper);

  std::size_t response_bits() const { return two_n_; }
  std::size_t output_bits() const { return two_n_; }
  Pairing pairing() const { return pairing_; }

  /// Phase-1 fold of one raw response: 2n bits -> n bits.
  support::BitVector fold(const support::BitVector& response) const;

  /// Full two-phase obfuscation of 8 raw responses into one 2n-bit output.
  support::BitVector obfuscate(
      const std::array<support::BitVector, kResponsesPerOutput>& responses)
      const;

  /// Word form of `obfuscate` for response_bits() <= 32: bit i of
  /// `responses[r]` is bit i of raw response r, bit i of the result is
  /// bit i of z.  Bits at or above response_bits() are ignored.  Equal to
  /// `obfuscate` bit for bit; std::logic_error above 32 bits.
  std::uint32_t obfuscate_words(
      const std::array<std::uint32_t, kResponsesPerOutput>& responses) const;

 private:
  /// Word-form fold of one response (n bits, low half of the result).
  std::uint32_t fold_word(std::uint32_t response) const;

  std::size_t two_n_;
  Pairing pairing_;
  /// pair_[k] = {p, q}: fold output bit k = y[p] XOR y[q].
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
  /// fold_table_[k * 16 + v]: the fold of a response whose nibble k is v
  /// and every other nibble 0 (the fold is linear, so a response folds to
  /// the XOR of its nibbles' entries).  Empty above 32 bits; 256 bytes at
  /// 32, so every device and emulator can afford its own.
  std::vector<std::uint16_t> fold_table_;
};

}  // namespace pufatt::alupuf
