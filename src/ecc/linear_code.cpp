#include "ecc/linear_code.hpp"

#include <stdexcept>

namespace pufatt::ecc {

std::optional<support::BitVector> BinaryCode::decode_soft_to_codeword(
    const std::vector<double>& llr) const {
  if (llr.size() != n()) {
    throw std::invalid_argument("decode_soft_to_codeword: wrong length");
  }
  support::BitVector hard(n());
  for (std::size_t i = 0; i < llr.size(); ++i) hard.set(i, llr[i] < 0.0);
  return decode_to_codeword(hard);
}

const std::vector<support::BitVector>& BinaryCode::syndrome_preimages() const {
  std::call_once(preimages_once_, [this] {
    const auto& h = parity_check();
    std::vector<support::BitVector> table;
    table.reserve(h.rows());
    for (std::size_t j = 0; j < h.rows(); ++j) {
      support::BitVector unit(h.rows());
      unit.set(j, true);
      auto solution = h.solve(unit);
      if (!solution) {
        throw std::invalid_argument(
            "BinaryCode: parity-check matrix is rank-deficient");
      }
      table.push_back(std::move(*solution));
    }
    preimages_ = std::move(table);
  });
  return preimages_;
}

}  // namespace pufatt::ecc
