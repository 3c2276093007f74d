#include "la/io.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

namespace extdict::la {

namespace {

constexpr char kArrayHeader[] = "%%MatrixMarket matrix array real general";
constexpr char kCoordHeader[] = "%%MatrixMarket matrix coordinate real general";

std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("matrix market: cannot open " + path);
  return in;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("matrix market: cannot create " + path);
  return out;
}

// Reads the banner line and skips comment lines; returns the banner.
std::string read_banner(std::ifstream& in, const std::string& path) {
  std::string banner;
  if (!std::getline(in, banner)) {
    throw std::runtime_error("matrix market: empty file " + path);
  }
  std::string line;
  while (in.peek() == '%') std::getline(in, line);
  return banner;
}

}  // namespace

// extdict-lint: allow(missing-shape-contract) any matrix is serialisable; I/O errors are std::runtime_error
void write_matrix_market(const Matrix& a, const std::string& path) {
  std::ofstream out = open_output(path);
  out << kArrayHeader << '\n';
  out << a.rows() << ' ' << a.cols() << '\n';
  out.precision(17);
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) out << a(i, j) << '\n';
  }
  if (!out) throw std::runtime_error("matrix market: write failed " + path);
}

// extdict-lint: allow(missing-shape-contract) any matrix is serialisable; I/O errors are std::runtime_error
void write_matrix_market(const CscMatrix& a, const std::string& path) {
  std::ofstream out = open_output(path);
  out << kCoordHeader << '\n';
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (Index j = 0; j < a.cols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      out << rows[k] + 1 << ' ' << j + 1 << ' ' << vals[k] << '\n';
    }
  }
  if (!out) throw std::runtime_error("matrix market: write failed " + path);
}

namespace {

// A header whose claimed payload could not possibly fit in the file is
// corrupt; reject it before allocating. Each dense entry / coordinate line
// needs at least two bytes of text ("0\n"), so file size bounds the entry
// count. Keeps a malformed header from triggering a multi-gigabyte
// allocation (or Index overflow) on a kilobyte file.
void check_claimed_entries(const std::string& path, std::uint64_t entries,
                           const char* what) {
  std::error_code ec;
  const std::uint64_t bytes = std::filesystem::file_size(path, ec);
  if (!ec && entries > bytes) {
    throw std::runtime_error(std::string("matrix market: ") + what +
                             " count exceeds file size in " + path);
  }
}

constexpr Index kMaxDim = Index{1} << 31;  // sanity cap on a single dimension

}  // namespace

Matrix read_matrix_market_dense(const std::string& path) {
  std::ifstream in = open_input(path);
  const std::string banner = read_banner(in, path);
  if (banner.find("array") == std::string::npos) {
    throw std::runtime_error("matrix market: not an array file: " + path);
  }
  Index rows = 0, cols = 0;
  if (!(in >> rows >> cols) || rows < 0 || cols < 0) {
    throw std::runtime_error("matrix market: bad dimensions in " + path);
  }
  if (rows > kMaxDim || cols > kMaxDim) {
    throw std::runtime_error("matrix market: implausible dimensions in " + path);
  }
  check_claimed_entries(path,
                        static_cast<std::uint64_t>(rows) *
                            static_cast<std::uint64_t>(cols),
                        "entry");
  Matrix a(rows, cols);
  for (Index j = 0; j < cols; ++j) {
    for (Index i = 0; i < rows; ++i) {
      if (!(in >> a(i, j))) {
        throw std::runtime_error("matrix market: truncated payload in " + path);
      }
    }
  }
  return a;
}

CscMatrix read_matrix_market_sparse(const std::string& path) {
  std::ifstream in = open_input(path);
  const std::string banner = read_banner(in, path);
  if (banner.find("coordinate") == std::string::npos) {
    throw std::runtime_error("matrix market: not a coordinate file: " + path);
  }
  Index rows = 0, cols = 0;
  std::uint64_t nnz = 0;
  if (!(in >> rows >> cols >> nnz) || rows < 0 || cols < 0) {
    throw std::runtime_error("matrix market: bad header in " + path);
  }
  if (rows > kMaxDim || cols > kMaxDim) {
    throw std::runtime_error("matrix market: implausible dimensions in " + path);
  }
  check_claimed_entries(path, nnz, "nonzero");
  // Collect per column; duplicates summed.
  std::vector<std::map<Index, Real>> columns(static_cast<std::size_t>(cols));
  for (std::uint64_t k = 0; k < nnz; ++k) {
    Index i = 0, j = 0;
    Real v = 0;
    if (!(in >> i >> j >> v)) {
      throw std::runtime_error("matrix market: truncated payload in " + path);
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      throw std::runtime_error("matrix market: index out of range in " + path);
    }
    columns[static_cast<std::size_t>(j - 1)][i - 1] += v;
  }
  CscMatrix::Builder builder(rows, cols);
  for (Index j = 0; j < cols; ++j) {
    for (const auto& [row, value] : columns[static_cast<std::size_t>(j)]) {
      builder.add(row, value);
    }
    builder.commit_column();
  }
  return std::move(builder).build();
}

}  // namespace extdict::la
