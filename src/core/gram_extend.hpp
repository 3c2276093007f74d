#pragma once

#include "la/matrix.hpp"
#include "la/types.hpp"

namespace extdict::core {

using la::Index;
using la::Matrix;
using la::Real;

/// Grows the Gram matrix G = DᵀD to cover `dict` extended by `new_atoms`
/// via bordering instead of a full recompute:
///
///   G' = [ G        Dᵀ·A_new      ]
///        [ A_newᵀ·D  A_newᵀ·A_new ]
///
/// Cost: an L² copy plus 2·M·L·K + M·K² FLOPs for the border blocks, versus
/// 2·M·(L+K)² for `la::gram` on the extended dictionary — the difference is
/// what makes online dictionary extension (serve::DictRegistry, the
/// core::evolve pass-2 re-code) cheap enough to run under load.
///
/// The border blocks are `la::gemm(kYes)` (Dᵀ·A_new) and `la::gram(A_new)`,
/// which share `la::gram`'s inner-product kernel and its reduction order
/// (every entry a fixed function of its two columns), so the result is
/// BITWISE identical to
/// `la::gram(extended_dict)` — extension changes where the Gram comes from,
/// never what Batch-OMP sees (dict_registry_test pins this).
///
/// Shapes: `gram` is L×L, `dict` is M×L, `new_atoms` is M×K; the result is
/// (L+K)×(L+K).
[[nodiscard]] Matrix extend_gram_bordered(const Matrix& gram,
                                          const Matrix& dict,
                                          const Matrix& new_atoms);

}  // namespace extdict::core
