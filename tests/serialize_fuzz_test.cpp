// Fuzz-ish robustness tests for the Matrix Market readers: a table of
// malformed headers and truncated/corrupt payloads. Every case must produce a
// clean std::runtime_error — never an out-of-bounds read (run these under the
// asan-ubsan preset) nor a multi-gigabyte allocation from a corrupt header.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "la/io.hpp"

namespace extdict {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
}

TEST(SerializeFuzz, MalformedMatrixMarketDenseFailsCleanly) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"wrong_banner", "%%MatrixMarket matrix coordinate real general\n2 2\n1\n2\n3\n4\n"},
      {"negative_dims", "%%MatrixMarket matrix array real general\n-3 2\n1\n2\n"},
      {"huge_dims_tiny_file", "%%MatrixMarket matrix array real general\n999999 999999\n1\n"},
      {"truncated_payload", "%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n"},
      {"garbage_dims", "%%MatrixMarket matrix array real general\nxx yy\n"},
      {"empty", ""},
  };
  for (const auto& [name, contents] : cases) {
    const std::string path = temp_path(std::string("extdict_fuzz_mm_") + name);
    write_file(path, contents);
    EXPECT_THROW((void)la::read_matrix_market_dense(path), std::runtime_error)
        << name;
    std::remove(path.c_str());
  }
}

TEST(SerializeFuzz, MalformedMatrixMarketSparseFailsCleanly) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"wrong_banner", "%%MatrixMarket matrix array real general\n2 2\n1\n"},
      {"row_out_of_range", "%%MatrixMarket matrix coordinate real general\n3 3 1\n7 1 1.0\n"},
      {"col_out_of_range", "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 9 1.0\n"},
      {"zero_based_index", "%%MatrixMarket matrix coordinate real general\n3 3 1\n0 1 1.0\n"},
      {"nnz_claim_huge", "%%MatrixMarket matrix coordinate real general\n3 3 99999999999\n1 1 1.0\n"},
      {"truncated_entries", "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1.0\n"},
      {"negative_dims", "%%MatrixMarket matrix coordinate real general\n-1 3 1\n1 1 1.0\n"},
  };
  for (const auto& [name, contents] : cases) {
    const std::string path = temp_path(std::string("extdict_fuzz_mms_") + name);
    write_file(path, contents);
    EXPECT_THROW((void)la::read_matrix_market_sparse(path), std::runtime_error)
        << name;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace extdict
