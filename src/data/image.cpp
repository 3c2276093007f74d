#include "data/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace extdict::data {

Real Image::sample(Real x, Real y) const noexcept {
  const Real cx = std::clamp(x, Real{0}, static_cast<Real>(width - 1));
  const Real cy = std::clamp(y, Real{0}, static_cast<Real>(height - 1));
  const Index x0 = static_cast<Index>(cx);
  const Index y0 = static_cast<Index>(cy);
  const Index x1 = std::min(x0 + 1, width - 1);
  const Index y1 = std::min(y0 + 1, height - 1);
  const Real fx = cx - static_cast<Real>(x0);
  const Real fy = cy - static_cast<Real>(y0);
  const Real top = at(x0, y0) * (1 - fx) + at(x1, y0) * fx;
  const Real bottom = at(x0, y1) * (1 - fx) + at(x1, y1) * fx;
  return top * (1 - fy) + bottom * fy;
}

Image make_smooth_scene(Index width, Index height, la::Rng& rng,
                        int blur_passes, Index blur_radius) {
  Image img(width, height);
  rng.fill_gaussian(img.pixels);

  // Separable box blur, repeated: approximates a Gaussian low-pass.
  std::vector<Real> tmp(img.pixels.size());
  for (int pass = 0; pass < blur_passes; ++pass) {
    // Horizontal.
    for (Index y = 0; y < height; ++y) {
      for (Index x = 0; x < width; ++x) {
        Real s = 0;
        Index n = 0;
        for (Index dx = -blur_radius; dx <= blur_radius; ++dx) {
          const Index xx = x + dx;
          if (xx < 0 || xx >= width) continue;
          s += img.at(xx, y);
          ++n;
        }
        tmp[static_cast<std::size_t>(y * width + x)] = s / static_cast<Real>(n);
      }
    }
    img.pixels = tmp;
    // Vertical.
    for (Index y = 0; y < height; ++y) {
      for (Index x = 0; x < width; ++x) {
        Real s = 0;
        Index n = 0;
        for (Index dy = -blur_radius; dy <= blur_radius; ++dy) {
          const Index yy = y + dy;
          if (yy < 0 || yy >= height) continue;
          s += img.at(x, yy);
          ++n;
        }
        tmp[static_cast<std::size_t>(y * width + x)] = s / static_cast<Real>(n);
      }
    }
    img.pixels = tmp;
  }

  const auto [lo_it, hi_it] =
      std::minmax_element(img.pixels.begin(), img.pixels.end());
  const Real lo = *lo_it;  // copy before mutating the buffer they point into
  const Real range = *hi_it - lo;
  if (range > 0) {
    for (Real& v : img.pixels) v = (v - lo) / range;
  }
  return img;
}

Real psnr_db(const std::vector<Real>& reference,
             const std::vector<Real>& reconstructed) {
  if (reference.size() != reconstructed.size() || reference.empty()) {
    throw std::invalid_argument("psnr_db: size mismatch");
  }
  Real mse = 0;
  Real peak = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const Real d = reference[i] - reconstructed[i];
    mse += d * d;
    peak = std::max(peak, std::abs(reference[i]));
  }
  mse /= static_cast<Real>(reference.size());
  if (mse == Real{0}) return std::numeric_limits<Real>::infinity();
  if (peak == Real{0}) peak = 1;
  return Real{10} * std::log10(peak * peak / mse);
}

void write_pgm(const Image& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pgm: cannot open " + path);
  out << "P5\n" << img.width << ' ' << img.height << "\n255\n";
  for (Real v : img.pixels) {
    const int q = static_cast<int>(std::lround(std::clamp(v, Real{0}, Real{1}) * 255));
    out.put(static_cast<char>(q));
  }
}

Image read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_pgm: cannot open " + path);
  std::string magic;
  in >> magic;
  if (magic != "P5") throw std::runtime_error("read_pgm: not a binary PGM");
  Index w = 0, h = 0;
  int maxval = 0;
  in >> w >> h >> maxval;
  in.get();  // single whitespace after header
  if (w <= 0 || h <= 0 || maxval <= 0 || maxval > 255) {
    throw std::runtime_error("read_pgm: bad header");
  }
  Image img(w, h);
  std::vector<char> raw(static_cast<std::size_t>(w * h));
  in.read(raw.data(), static_cast<std::streamsize>(raw.size()));
  if (!in) throw std::runtime_error("read_pgm: truncated payload");
  for (std::size_t i = 0; i < raw.size(); ++i) {
    img.pixels[i] = static_cast<Real>(static_cast<unsigned char>(raw[i])) /
                    static_cast<Real>(maxval);
  }
  return img;
}

}  // namespace extdict::data
