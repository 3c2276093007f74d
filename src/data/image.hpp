#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "la/random.hpp"
#include "la/types.hpp"

namespace extdict::data {

using la::Index;
using la::Matrix;
using la::Real;

/// Grayscale image with values nominally in [0, 1].
struct Image {
  Index width = 0;
  Index height = 0;
  std::vector<Real> pixels;  // row-major

  Image() = default;
  Image(Index w, Index h) : width(w), height(h), pixels(static_cast<std::size_t>(w * h), 0) {}

  Real& at(Index x, Index y) noexcept {
    return pixels[static_cast<std::size_t>(y * width + x)];
  }
  [[nodiscard]] Real at(Index x, Index y) const noexcept {
    return pixels[static_cast<std::size_t>(y * width + x)];
  }

  /// Bilinear sample at a fractional position, clamped to the border.
  [[nodiscard]] Real sample(Real x, Real y) const noexcept;
};

/// Smooth synthetic scene: Gaussian noise low-passed by repeated box blurs,
/// then range-normalised to [0, 1]. Smoothness gives image patches their
/// union-of-low-rank structure.
[[nodiscard]] Image make_smooth_scene(Index width, Index height, la::Rng& rng,
                                      int blur_passes = 6, Index blur_radius = 3);

/// Peak signal-to-noise ratio in dB: 10 log10(MAX² / MSE) where MAX is the
/// reference image's peak value (the paper's §VIII-D2 metric).
[[nodiscard]] Real psnr_db(const std::vector<Real>& reference,
                           const std::vector<Real>& reconstructed);

/// Binary PGM (P5, 8-bit) I/O for eyeballing example outputs.
void write_pgm(const Image& img, const std::string& path);
[[nodiscard]] Image read_pgm(const std::string& path);

}  // namespace extdict::data
