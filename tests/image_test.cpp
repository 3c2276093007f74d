#include "data/image.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "la/random.hpp"

namespace extdict::data {
namespace {

TEST(Image, AtAndSampleAgreeOnGrid) {
  Image img(4, 3);
  img.at(2, 1) = 0.7;
  EXPECT_EQ(img.sample(2.0, 1.0), 0.7);
}

TEST(Image, SampleInterpolatesBilinearly) {
  Image img(2, 2);
  img.at(0, 0) = 0;
  img.at(1, 0) = 1;
  img.at(0, 1) = 0;
  img.at(1, 1) = 1;
  EXPECT_NEAR(img.sample(0.5, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(img.sample(0.25, 0.0), 0.25, 1e-12);
}

TEST(Image, SampleClampsAtBorder) {
  Image img(2, 2);
  img.at(1, 1) = 1.0;
  EXPECT_EQ(img.sample(100.0, 100.0), 1.0);
  EXPECT_EQ(img.sample(-5.0, -5.0), 0.0);
}

TEST(Image, SmoothSceneIsSmootherThanNoise) {
  la::Rng rng(1);
  Image img = make_smooth_scene(32, 32, rng);
  // Values are range-normalised...
  for (Real v : img.pixels) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // ...and adjacent pixels are close (total variation far below random).
  Real tv = 0;
  for (la::Index y = 0; y < 32; ++y) {
    for (la::Index x = 0; x + 1 < 32; ++x) {
      tv += std::abs(img.at(x + 1, y) - img.at(x, y));
    }
  }
  tv /= 32 * 31;
  EXPECT_LT(tv, 0.05);
}

TEST(Psnr, InfiniteForIdenticalSignals) {
  std::vector<Real> a = {0.1, 0.5, 0.9};
  EXPECT_TRUE(std::isinf(psnr_db(a, a)));
}

TEST(Psnr, KnownValue) {
  // Peak 1.0, MSE 0.01 -> 20 dB.
  std::vector<Real> ref = {1.0, 0.0};
  std::vector<Real> rec = {1.1, -0.1};
  EXPECT_NEAR(psnr_db(ref, rec), 20.0, 1e-9);
}

TEST(Psnr, HigherNoiseLowerPsnr) {
  la::Rng rng(3);
  std::vector<Real> ref(500, 0.5);
  std::vector<Real> small = ref, big = ref;
  for (auto& v : small) v += rng.gaussian(0, 0.01);
  for (auto& v : big) v += rng.gaussian(0, 0.1);
  EXPECT_GT(psnr_db(ref, small), psnr_db(ref, big));
}

TEST(Psnr, MismatchThrows) {
  std::vector<Real> a(3), b(4);
  EXPECT_THROW((void)psnr_db(a, b), std::invalid_argument);
}

TEST(Pgm, RoundTripsThroughDisk) {
  la::Rng rng(6);
  Image img = make_smooth_scene(16, 12, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "extdict_test.pgm").string();
  write_pgm(img, path);
  Image back = read_pgm(path);
  EXPECT_EQ(back.width, 16);
  EXPECT_EQ(back.height, 12);
  // 8-bit quantisation: within 1/255.
  for (std::size_t i = 0; i < img.pixels.size(); ++i) {
    EXPECT_NEAR(back.pixels[i], img.pixels[i], 1.0 / 255 + 1e-9);
  }
  std::remove(path.c_str());
}

TEST(Pgm, MissingFileThrows) {
  EXPECT_THROW(read_pgm("/nonexistent/nope.pgm"), std::runtime_error);
}

}  // namespace
}  // namespace extdict::data
