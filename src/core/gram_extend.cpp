#include "core/gram_extend.hpp"

#include <algorithm>

#include "la/blas.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace extdict::core {

Matrix extend_gram_bordered(const Matrix& gram, const Matrix& dict,
                            const Matrix& new_atoms) {
  const Index l = dict.cols();
  const Index k = new_atoms.cols();
  EXTDICT_REQUIRE_SHAPE(
      gram.rows() == l && gram.cols() == l,
      "extend_gram_bordered: gram is " + std::to_string(gram.rows()) + "x" +
          std::to_string(gram.cols()) + " but the dictionary has " +
          std::to_string(l) + " columns");
  EXTDICT_REQUIRE_SHAPE(new_atoms.rows() == dict.rows(),
                        "extend_gram_bordered: new atoms have " +
                            std::to_string(new_atoms.rows()) +
                            " rows but the dictionary has " +
                            std::to_string(dict.rows()) + " rows");

  Matrix out(l + k, l + k);
  // Top-left block: the resident Gram, column-by-column (both column-major).
  for (Index j = 0; j < l; ++j) {
    const auto src = gram.col(j);
    const auto dst = out.col(j);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  // Border blocks through the same inner-product kernel as la::gram, whose
  // entries are each a fixed function of their two columns, so G' is
  // bitwise what a full recompute would produce.
  const Index n = l + k;
  const Matrix cross = la::matmul(dict, new_atoms, la::Trans::kYes);
  const Matrix corner = la::gram(new_atoms);
  for (Index jk = 0; jk < k; ++jk) {
    const auto top = cross.col(jk);
    std::copy(top.begin(), top.end(), out.col(l + jk).begin());
    for (Index ik = 0; ik <= jk; ++ik) out(l + ik, l + jk) = corner(ik, jk);
  }
  // Mirror the border into the bottom-left rows.
  for (Index j = 0; j < n; ++j) {
    for (Index i = std::max(j + 1, l); i < n; ++i) out(i, j) = out(j, i);
  }

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.add("core.gram_extend.bordered", 1);
  metrics.add("core.gram_extend.atoms_appended", static_cast<std::uint64_t>(k));
  return out;
}

}  // namespace extdict::core
