// extdict-lint: allow(orphan-module) Matrix Market is the library's one persistence format and extdict_cli's input
#pragma once

#include <string>

#include "la/csc_matrix.hpp"
#include "la/matrix.hpp"

namespace extdict::la {

/// Matrix Market I/O — the interchange format hyperspectral / morphology
/// datasets are commonly shipped in, so the library can run on real data
/// as well as the synthetic generators. It is also the library's one
/// persistence format: a transform is reused across sessions (§IV) by saving
/// D as a dense and C as a sparse file (`extdict_cli --save-dict/--save-coeffs`).
///
/// Supported flavours:
///   * "%%MatrixMarket matrix array real general"      <-> dense Matrix
///   * "%%MatrixMarket matrix coordinate real general" <-> CscMatrix

/// Writes a dense matrix in array format (column major, as the format
/// prescribes).
void write_matrix_market(const Matrix& a, const std::string& path);

/// Writes a sparse matrix in coordinate format (1-based indices).
void write_matrix_market(const CscMatrix& a, const std::string& path);

/// Reads an array-format file into a dense matrix. Throws std::runtime_error
/// on malformed input.
[[nodiscard]] Matrix read_matrix_market_dense(const std::string& path);

/// Reads a coordinate-format file into a CSC matrix (duplicate entries are
/// summed, as is conventional).
[[nodiscard]] CscMatrix read_matrix_market_sparse(const std::string& path);

}  // namespace extdict::la
