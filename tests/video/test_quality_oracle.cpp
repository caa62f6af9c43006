// Kernel oracles for the quality metrics and the progressive decoder.
//
// The references below are the straightforward formulations: SSIM sums
// every 8x8 window pixel by pixel, PSNR accumulates squared errors in
// double, and the decoder walks every pixel with div/mod indexing through
// full-size mean planes. The library computes the same quantities from
// 4x4 block sums, an integer squared error and a per-block decode tree;
// these tests demand bit-equal results, for every pool size.
#include "common/rng.h"
#include "common/thread_pool.h"
#include "quality/metrics.h"
#include "video/layered.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace w4k {
namespace {

using video::Plane;

constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
constexpr int kWindow = 8;
constexpr int kStride = 4;
constexpr std::size_t kBandRows = 32;

struct RefSums {
  double ssim = 0.0;
  double cs = 0.0;
  long windows = 0;
};

/// Window-by-window SSIM sums over window rows [wr_begin, wr_end).
RefSums ref_band(const Plane& a, const Plane& b, std::size_t wr_begin,
                 std::size_t wr_end) {
  RefSums out;
  for (std::size_t wr = wr_begin; wr < wr_end; ++wr) {
    const int wy = static_cast<int>(wr) * kStride;
    for (int wx = 0; wx + kWindow <= a.width; wx += kStride) {
      long sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
      for (int y = 0; y < kWindow; ++y) {
        for (int x = 0; x < kWindow; ++x) {
          const int va = a.at(wx + x, wy + y);
          const int vb = b.at(wx + x, wy + y);
          sa += va;
          sb += vb;
          saa += va * va;
          sbb += vb * vb;
          sab += va * vb;
        }
      }
      constexpr double n = kWindow * kWindow;
      const double ma = sa / n;
      const double mb = sb / n;
      const double va = saa / n - ma * ma;
      const double vb = sbb / n - mb * mb;
      const double cov = sab / n - ma * mb;
      const double cs = (2.0 * cov + kC2) / (va + vb + kC2);
      const double l = (2.0 * ma * mb + kC1) / (ma * ma + mb * mb + kC1);
      out.cs += cs;
      out.ssim += l * cs;
      ++out.windows;
    }
  }
  return out;
}

/// Reduces fixed 32-window-row bands in band order, the summation order
/// the library promises for any pool size.
RefSums ref_plane(const Plane& a, const Plane& b) {
  const std::size_t n_wrows =
      static_cast<std::size_t>((a.height - kWindow) / kStride) + 1;
  RefSums total;
  for (std::size_t wr = 0; wr < n_wrows; wr += kBandRows) {
    const RefSums s = ref_band(a, b, wr, std::min(n_wrows, wr + kBandRows));
    total.ssim += s.ssim;
    total.cs += s.cs;
    total.windows += s.windows;
  }
  return total;
}

double ref_ssim(const Plane& a, const Plane& b) {
  const RefSums s = ref_plane(a, b);
  return std::max(s.ssim / static_cast<double>(s.windows), 0.0);
}

Plane ref_downsample(const Plane& p) {
  Plane out(p.width / 2, p.height / 2);
  for (int y = 0; y < out.height; ++y)
    for (int x = 0; x < out.width; ++x) {
      const int sum = p.at(2 * x, 2 * y) + p.at(2 * x + 1, 2 * y) +
                      p.at(2 * x, 2 * y + 1) + p.at(2 * x + 1, 2 * y + 1);
      out.at(x, y) = static_cast<std::uint8_t>((sum + 2) / 4);
    }
  return out;
}

double ref_ms_ssim(Plane a, Plane b, int scales) {
  constexpr double kWeights[5] = {0.0448, 0.2856, 0.3001, 0.2363, 0.1333};
  double result = 1.0;
  for (int s = 0; s < scales; ++s) {
    const RefSums sums = ref_plane(a, b);
    const double w = static_cast<double>(sums.windows);
    const double term = s + 1 == scales ? std::max(sums.ssim / w, 0.0)
                                        : std::max(sums.cs / w, 0.0);
    result *= std::pow(term, kWeights[s]);
    if (s + 1 < scales) {
      a = ref_downsample(a);
      b = ref_downsample(b);
    }
  }
  return result;
}

double ref_psnr(const Plane& a, const Plane& b) {
  double se = 0.0;
  for (std::size_t i = 0; i < a.pix.size(); ++i) {
    const double d = static_cast<double>(a.pix[i]) - b.pix[i];
    se += d * d;
  }
  const double mse = se / static_cast<double>(a.pix.size());
  if (mse <= 0.0) return 100.0;
  return std::min(100.0, 10.0 * std::log10(255.0 * 255.0 / mse));
}

Plane random_plane(int w, int h, Rng& rng) {
  Plane p(w, h);
  for (auto& v : p.pix) v = static_cast<std::uint8_t>(rng.below(256));
  return p;
}

/// `a` plus bounded noise, so windows span the whole SSIM range rather
/// than sitting near zero as two independent noise planes do.
Plane distorted(const Plane& a, int amp, Rng& rng) {
  Plane b = a;
  for (auto& v : b.pix) {
    const int n = static_cast<int>(rng.below(2 * amp + 1)) - amp;
    v = static_cast<std::uint8_t>(std::clamp(v + n, 0, 255));
  }
  return b;
}

/// Runs `body` with the shared pool at 1, 2 and 4 threads, then restores
/// the default size.
template <typename F>
void for_pool_sizes(F&& body) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool::reset_shared(threads);
    SCOPED_TRACE(::testing::Message() << threads << " pool threads");
    body();
  }
  ThreadPool::reset_shared(0);
}

TEST(QualityOracle, BlockSumMetricsEqualWindowLoopBitForBit) {
  const std::array<std::array<int, 2>, 5> dims = {
      {{8, 8}, {9, 13}, {13, 11}, {31, 17}, {256, 144}}};
  for_pool_sizes([&] {
    Rng rng(20240611);
    for (const auto& d : dims) {
      const int w = d[0], h = d[1];
      SCOPED_TRACE(::testing::Message() << w << "x" << h);
      const Plane a = random_plane(w, h, rng);
      // Unrelated, mildly and heavily distorted, identical, and constant
      // partners: the clamps, the 100 dB cap and the spread of window
      // values all get exercised.
      const std::vector<Plane> partners = {
          random_plane(w, h, rng), distorted(a, 3, rng), distorted(a, 40, rng),
          a, Plane(w, h, 128)};
      int scales = 1;
      while (scales < 5 && (kWindow << scales) <= std::min(w, h)) ++scales;
      for (const Plane& b : partners) {
        const quality::Score s = quality::score(a, b);
        EXPECT_EQ(s.ssim, ref_ssim(a, b));
        EXPECT_EQ(s.psnr, ref_psnr(a, b));
        EXPECT_EQ(quality::ssim(a, b), s.ssim);
        EXPECT_EQ(quality::psnr(a, b), s.psnr);
        EXPECT_EQ(quality::ms_ssim(a, b, scales), ref_ms_ssim(a, b, scales));
      }
    }
  });
}

// --- Decoder -----------------------------------------------------------

using Bufs = std::array<std::vector<std::vector<std::uint8_t>>,
                        video::kNumLayers>;

/// Per-pixel reference decode of one plane whose slice starts at byte
/// `base` of every sublayer buffer (the layout is Y|U|V per sublayer).
void ref_decode_plane(Plane& p, const Bufs& bufs,
                      const std::array<std::size_t, video::kNumLayers>& base) {
  const int w8 = p.width / 8, h8 = p.height / 8;
  const int w4 = w8 * 2, w2 = w8 * 4;
  std::vector<int> m4(static_cast<std::size_t>(w4) * (h8 * 2));
  std::vector<int> m2(static_cast<std::size_t>(w2) * (h8 * 4));
  const auto diff = [&](int l, int k, std::size_t i) {
    return static_cast<int>(bufs[l][static_cast<std::size_t>(k)]
                                [base[static_cast<std::size_t>(l)] + i]) -
           128;
  };
  for (int by = 0; by < h8 * 2; ++by)
    for (int bx = 0; bx < w4; ++bx) {
      const std::size_t parent =
          static_cast<std::size_t>(by / 2) * w8 + bx / 2;
      m4[static_cast<std::size_t>(by) * w4 + bx] =
          bufs[0][0][base[0] + parent] +
          diff(1, (by % 2) * 2 + bx % 2, parent);
    }
  for (int by = 0; by < h8 * 4; ++by)
    for (int bx = 0; bx < w2; ++bx) {
      const std::size_t parent =
          static_cast<std::size_t>(by / 2) * w4 + bx / 2;
      m2[static_cast<std::size_t>(by) * w2 + bx] =
          m4[parent] + diff(2, (by % 2) * 2 + bx % 2, parent);
    }
  for (int y = 0; y < p.height; ++y)
    for (int x = 0; x < p.width; ++x) {
      const std::size_t parent = static_cast<std::size_t>(y / 2) * w2 + x / 2;
      p.at(x, y) = static_cast<std::uint8_t>(std::clamp(
          m2[parent] + diff(3, (y % 2) * 2 + x % 2, parent), 0, 255));
    }
}

TEST(DecoderOracle, BandedDecodeEqualsPerPixelReference) {
  const std::array<std::array<int, 2>, 4> dims = {
      {{16, 16}, {48, 32}, {80, 48}, {256, 144}}};
  for_pool_sizes([&] {
    Rng rng(77);
    for (const auto& d : dims) {
      const int w = d[0], h = d[1];
      SCOPED_TRACE(::testing::Message() << w << "x" << h);
      for (int trial = 0; trial < 6; ++trial) {
        // A random subset of random byte ranges with random contents:
        // arbitrary bytes drive the means past 0 and 255, so the pixel
        // clamp is exercised too.
        Bufs bufs;
        video::ReconstructWorkspace ws;
        ws.begin(w, h);
        for (int l = 0; l < video::kNumLayers; ++l) {
          const std::size_t size = video::sublayer_bytes(l, w, h);
          for (int k = 0; k < video::sublayer_count(l); ++k) {
            auto& buf = bufs[l].emplace_back(size, std::uint8_t{128});
            for (int r = 0; r < 3; ++r) {
              if (rng.below(3) == 0) continue;
              const std::size_t off = rng.below(size);
              const std::size_t n = rng.below(size - off) + 1;
              std::vector<std::uint8_t> bytes(n);
              for (auto& v : bytes) v = static_cast<std::uint8_t>(rng.below(256));
              ws.write(l, k, off, bytes.data(), n);
              std::copy(bytes.begin(), bytes.end(),
                        buf.begin() + static_cast<std::ptrdiff_t>(off));
            }
          }
        }
        std::array<std::size_t, video::kNumLayers> y_base{}, u_base{},
            v_base{};
        for (int l = 0; l < video::kNumLayers; ++l) {
          const int s = l == 0 ? 8 : 8 >> (l - 1);
          const std::size_t ye =
              static_cast<std::size_t>(w / s) * static_cast<std::size_t>(h / s);
          u_base[static_cast<std::size_t>(l)] = ye;
          v_base[static_cast<std::size_t>(l)] = ye + ye / 4;
        }
        Plane ry(w, h), ru(w / 2, h / 2), rv(w / 2, h / 2);
        ref_decode_plane(ry, bufs, y_base);
        ref_decode_plane(ru, bufs, u_base);
        ref_decode_plane(rv, bufs, v_base);

        video::Frame full;
        ws.finish(full);
        Plane luma;
        ws.finish_luma(luma);
        EXPECT_EQ(full.y.pix, ry.pix);
        EXPECT_EQ(full.u.pix, ru.pix);
        EXPECT_EQ(full.v.pix, rv.pix);
        EXPECT_EQ(luma.width, w);
        EXPECT_EQ(luma.height, h);
        EXPECT_EQ(luma.pix, full.y.pix);
      }
    }
  });
}

}  // namespace
}  // namespace w4k
