#include "ecc/gf2_matrix.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace pufatt::ecc {

using support::BitVector;

Gf2Matrix::Gf2Matrix(std::size_t rows, std::size_t cols) : cols_(cols) {
  rows_.assign(rows, BitVector(cols));
}

Gf2Matrix::Gf2Matrix(std::vector<support::BitVector> rows)
    : rows_(std::move(rows)) {
  cols_ = rows_.empty() ? 0 : rows_.front().size();
  for (const auto& r : rows_) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Gf2Matrix: ragged rows");
    }
  }
}

BitVector Gf2Matrix::mul_vector(const BitVector& x) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("Gf2Matrix::mul_vector: size mismatch");
  }
  // Row AND-parity straight over the packed words: no temporary per row
  // (the helper-data syndrome runs this once per raw PUF response).
  const auto& xw = x.words();
  BitVector y(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& rw = rows_[r].words();
    std::uint64_t acc = 0;
    for (std::size_t w = 0; w < xw.size(); ++w) acc ^= rw[w] & xw[w];
    y.set(r, (std::popcount(acc) & 1) != 0);
  }
  return y;
}

namespace {

/// Row-reduces `m` in place; returns the pivot column of each pivot row.
std::vector<std::size_t> row_reduce(std::vector<BitVector>& m,
                                    std::size_t cols) {
  std::vector<std::size_t> pivot_cols;
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols && pivot_row < m.size(); ++col) {
    std::size_t sel = pivot_row;
    while (sel < m.size() && !m[sel].get(col)) ++sel;
    if (sel == m.size()) continue;
    std::swap(m[pivot_row], m[sel]);
    for (std::size_t r = 0; r < m.size(); ++r) {
      if (r != pivot_row && m[r].get(col)) m[r] ^= m[pivot_row];
    }
    pivot_cols.push_back(col);
    ++pivot_row;
  }
  return pivot_cols;
}

}  // namespace

std::size_t Gf2Matrix::rank() const {
  auto work = rows_;
  return row_reduce(work, cols_).size();
}

std::vector<BitVector> Gf2Matrix::null_space() const {
  auto work = rows_;
  const auto pivot_cols = row_reduce(work, cols_);
  std::vector<bool> is_pivot(cols_, false);
  for (const auto c : pivot_cols) is_pivot[c] = true;

  std::vector<BitVector> basis;
  for (std::size_t free_col = 0; free_col < cols_; ++free_col) {
    if (is_pivot[free_col]) continue;
    BitVector v(cols_);
    v.set(free_col, true);
    // Back-substitute: pivot variable p (row r) equals sum of free columns
    // set in row r.
    for (std::size_t r = 0; r < pivot_cols.size(); ++r) {
      if (work[r].get(free_col)) v.set(pivot_cols[r], true);
    }
    basis.push_back(std::move(v));
  }
  return basis;
}

std::optional<BitVector> Gf2Matrix::solve(const BitVector& b) const {
  if (b.size() != rows_.size()) {
    throw std::invalid_argument("Gf2Matrix::solve: rhs size mismatch");
  }
  // Augment each row with its rhs bit, then reduce.
  std::vector<BitVector> work;
  work.reserve(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    BitVector aug(cols_ + 1);
    for (std::size_t c = 0; c < cols_; ++c) aug.set(c, rows_[r].get(c));
    aug.set(cols_, b.get(r));
    work.push_back(std::move(aug));
  }
  const auto pivot_cols = row_reduce(work, cols_);
  // Inconsistent if any zero row has rhs 1.
  for (std::size_t r = pivot_cols.size(); r < work.size(); ++r) {
    if (work[r].get(cols_)) return std::nullopt;
  }
  BitVector x(cols_);
  for (std::size_t r = 0; r < pivot_cols.size(); ++r) {
    x.set(pivot_cols[r], work[r].get(cols_));
  }
  return x;
}

Gf2Matrix Gf2Matrix::transposed() const {
  Gf2Matrix t(cols_, rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      if (rows_[r].get(c)) t.set(c, r, true);
    }
  }
  return t;
}

}  // namespace pufatt::ecc
