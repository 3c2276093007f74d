#include "la/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "la/blas.hpp"
#include "la/random.hpp"

namespace extdict::la {
namespace {

std::string tmp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(MatrixMarket, DenseRoundTrip) {
  Rng rng(1);
  Matrix a = rng.gaussian_matrix(7, 5);
  const std::string path = tmp_path("extdict_dense.mtx");
  write_matrix_market(a, path);
  Matrix b = read_matrix_market_dense(path);
  EXPECT_EQ(b.rows(), 7);
  EXPECT_EQ(b.cols(), 5);
  EXPECT_LT(max_abs_diff(a, b), 1e-14);
  std::remove(path.c_str());
}

TEST(MatrixMarket, SparseRoundTrip) {
  Rng rng(2);
  CscMatrix::Builder builder(10, 8);
  for (Index j = 0; j < 8; ++j) {
    for (Index i = 0; i < 10; ++i) {
      if (rng.uniform() < 0.3) builder.add(i, rng.gaussian());
    }
    builder.commit_column();
  }
  CscMatrix a = std::move(builder).build();
  const std::string path = tmp_path("extdict_sparse.mtx");
  write_matrix_market(a, path);
  CscMatrix b = read_matrix_market_sparse(path);
  EXPECT_EQ(b.rows(), 10);
  EXPECT_EQ(b.cols(), 8);
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_LT(max_abs_diff(a.to_dense(), b.to_dense()), 1e-14);
  std::remove(path.c_str());
}

TEST(MatrixMarket, SparseSumsDuplicates) {
  const std::string path = tmp_path("extdict_dup.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real general\n"
        << "% a comment line\n"
        << "2 2 3\n"
        << "1 1 1.5\n"
        << "1 1 2.5\n"
        << "2 2 -1\n";
  }
  CscMatrix m = read_matrix_market_sparse(path);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.to_dense()(0, 0), 4.0);
  EXPECT_EQ(m.to_dense()(1, 1), -1.0);
  std::remove(path.c_str());
}

TEST(MatrixMarket, RejectsWrongFlavour) {
  Rng rng(3);
  Matrix a = rng.gaussian_matrix(3, 3);
  const std::string path = tmp_path("extdict_flavour.mtx");
  write_matrix_market(a, path);
  EXPECT_THROW(read_matrix_market_sparse(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(MatrixMarket, RejectsMissingFileAndBadIndices) {
  EXPECT_THROW(read_matrix_market_dense("/nonexistent/x.mtx"), std::runtime_error);
  const std::string path = tmp_path("extdict_bad.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real general\n"
        << "2 2 1\n"
        << "3 1 1.0\n";  // row out of range
  }
  EXPECT_THROW(read_matrix_market_sparse(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace extdict::la
