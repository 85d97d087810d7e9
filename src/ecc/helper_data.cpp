#include "ecc/helper_data.hpp"

#include <stdexcept>

namespace pufatt::ecc {

using support::BitVector;

SyndromeHelper::SyndromeHelper(const BinaryCode& code)
    : code_(&code), preimage_(&code.syndrome_preimages()) {}

BitVector SyndromeHelper::syndrome_preimage(const BitVector& helper) const {
  BitVector y0(code_->n());
  for (std::size_t j = 0; j < helper.size(); ++j) {
    if (helper.get(j)) y0 ^= (*preimage_)[j];
  }
  return y0;
}

BitVector SyndromeHelper::generate(const BitVector& response) const {
  if (response.size() != code_->n()) {
    throw std::invalid_argument("SyndromeHelper::generate: wrong length");
  }
  return code_->syndrome(response);
}

std::optional<BitVector> SyndromeHelper::reproduce(
    const BitVector& reference, const BitVector& helper) const {
  if (reference.size() != code_->n()) {
    throw std::invalid_argument("SyndromeHelper::reproduce: wrong length");
  }
  if (helper.size() != helper_bits()) {
    throw std::invalid_argument("SyndromeHelper::reproduce: bad helper size");
  }
  // y0: any word with syndrome equal to the helper data.
  const BitVector y0 = syndrome_preimage(helper);
  // reference XOR y0 = (codeword) XOR (small error); decode it.
  const auto codeword = code_->decode_to_codeword(reference ^ y0);
  if (!codeword) return std::nullopt;
  return *codeword ^ y0;
}

std::optional<BitVector> SyndromeHelper::reproduce_soft(
    const std::vector<double>& reference_llr,
    const BitVector& helper) const {
  if (reference_llr.size() != code_->n()) {
    throw std::invalid_argument("SyndromeHelper::reproduce_soft: wrong length");
  }
  if (helper.size() != helper_bits()) {
    throw std::invalid_argument("SyndromeHelper::reproduce_soft: bad helper");
  }
  const BitVector y0 = syndrome_preimage(helper);
  // The word to decode is reference XOR y0; XOR with a known bit flips the
  // sign of the soft value.
  std::vector<double> llr = reference_llr;
  for (std::size_t i = 0; i < llr.size(); ++i) {
    if (y0.get(i)) llr[i] = -llr[i];
  }
  const auto codeword = code_->decode_soft_to_codeword(llr);
  if (!codeword) return std::nullopt;
  return *codeword ^ y0;
}

}  // namespace pufatt::ecc
