#include "quality/metrics.h"

#include "common/thread_pool.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace w4k::quality {
namespace {

constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
constexpr int kWindow = 8;
constexpr int kStride = 4;

// Window rows per parallel_for chunk. Fixed (never derived from the pool
// size) so the band boundaries — and therefore the floating-point
// summation order — are identical for any thread count.
constexpr std::size_t kBandRows = 32;

void check_same(const video::Plane& a, const video::Plane& b) {
  if (a.width != b.width || a.height != b.height)
    throw std::invalid_argument("quality metric: plane dimension mismatch");
  if (a.width < kWindow || a.height < kWindow)
    throw std::invalid_argument("quality metric: plane smaller than window");
}

/// Integer sums over one 4x4 block of the plane pair. An 8x8 window at
/// stride 4 is exactly four such blocks, so its sums are exact integer
/// additions of theirs (the largest, a window's sum of squares, is below
/// 2^22).
struct BlockSums {
  std::int32_t a = 0, b = 0, aa = 0, bb = 0, ab = 0;
};

static_assert(kWindow == 2 * kStride, "a window must be 2x2 blocks");

// Pixel columns per tile of a block row, and windows per tile of a window
// row: a tile's intermediate values live in small stack arrays.
constexpr int kTileColumns = 64;
constexpr int kTileWindows = 64;

/// Sums of every whole block of block row `by` into out[0, nbx). Returns
/// the row's squared error sum, sum (a - b)^2 = aa + bb - 2ab per block.
/// Each tile first sums its columns over the block's kStride rows (a loop
/// over contiguous pixels), then adds kStride column sums per block.
std::int64_t block_row(const video::Plane& a, const video::Plane& b, int by,
                       int nbx, BlockSums* out) {
  const std::size_t stride = static_cast<std::size_t>(a.width);
  const std::size_t row = static_cast<std::size_t>(by * kStride) * stride;
  const int columns = nbx * kStride;
  std::int64_t se = 0;
  for (int x0 = 0; x0 < columns; x0 += kTileColumns) {
    const int n = std::min(kTileColumns, columns - x0);
    const std::uint8_t* ra = a.pix.data() + row + static_cast<std::size_t>(x0);
    const std::uint8_t* rb = b.pix.data() + row + static_cast<std::size_t>(x0);
    std::int32_t ca[kTileColumns], cb[kTileColumns], caa[kTileColumns],
        cbb[kTileColumns], cab[kTileColumns];
    for (int x = 0; x < n; ++x) {
      std::int32_t sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
      for (int y = 0; y < kStride; ++y) {
        const std::int32_t va = ra[static_cast<std::size_t>(y) * stride + x];
        const std::int32_t vb = rb[static_cast<std::size_t>(y) * stride + x];
        sa += va;
        sb += vb;
        saa += va * va;
        sbb += vb * vb;
        sab += va * vb;
      }
      ca[x] = sa;
      cb[x] = sb;
      caa[x] = saa;
      cbb[x] = sbb;
      cab[x] = sab;
    }
    for (int x = 0; x < n; x += kStride) {
      const auto block = [x](const std::int32_t* c) {
        std::int32_t sum = 0;
        for (int i = 0; i < kStride; ++i) sum += c[x + i];
        return sum;
      };
      BlockSums& s = out[(x0 + x) / kStride];
      s.a = block(ca);
      s.b = block(cb);
      s.aa = block(caa);
      s.bb = block(cbb);
      s.ab = block(cab);
      se += static_cast<std::int64_t>(s.aa) + s.bb - 2 * s.ab;
    }
  }
  return se;
}

/// Squared error sum over the pixel rectangle [x0, x1) x [y0, y1).
std::int64_t rect_se(const video::Plane& a, const video::Plane& b, int x0,
                     int x1, int y0, int y1) {
  std::int64_t se = 0;
  for (int y = y0; y < y1; ++y)
    for (int x = x0; x < x1; ++x) {
      const int d = a.at(x, y) - b.at(x, y);
      se += d * d;
    }
  return se;
}

/// Partial sums of one horizontal band of SSIM windows. `ssim` accumulates
/// the full per-window SSIM (luminance * contrast-structure), `cs` the
/// contrast-structure term alone (needed by MS-SSIM's coarse scales), `se`
/// the exact squared error of the pixel rows the band owns (PSNR's sum).
struct BandSums {
  double ssim = 0.0;
  double cs = 0.0;
  long windows = 0;
  std::int64_t se = 0;
};

/// Accumulates windows whose top rows are wy = wr * kStride for wr in
/// [wr_begin, wr_end), from block rows wr_begin..wr_end held in the two
/// rows of `scratch` (2 * nbx entries). The per-window arithmetic is
/// shared by ssim() and ms_ssim() so the two metrics stay mutually
/// consistent. The band owns pixel rows [wr_begin, wr_end) * kStride, and
/// the last band every row below them too, so each pixel's squared error
/// is counted by exactly one band.
BandSums band_sums(const video::Plane& a, const video::Plane& b,
                   std::size_t wr_begin, std::size_t wr_end, bool last,
                   BlockSums* scratch) {
  const int nbx = a.width / kStride;
  const int nby = a.height / kStride;
  BlockSums* top = scratch;
  BlockSums* bottom = scratch + nbx;
  BandSums out;
  out.se = block_row(a, b, static_cast<int>(wr_begin), nbx, bottom);
  for (std::size_t wr = wr_begin; wr < wr_end; ++wr) {
    std::swap(top, bottom);
    const std::int64_t row_se =
        block_row(a, b, static_cast<int>(wr) + 1, nbx, bottom);
    if (wr + 1 < wr_end || last) out.se += row_se;
    // The per-window terms of a tile are independent; only their sum
    // keeps the serial window order.
    for (int i0 = 0; i0 + 1 < nbx; i0 += kTileWindows) {
      const int n_win = std::min(kTileWindows, nbx - 1 - i0);
      double cs_tile[kTileWindows], ssim_tile[kTileWindows];
      for (int j = 0; j < n_win; ++j) {
        const int i = i0 + j;
        const long sa = top[i].a + top[i + 1].a + bottom[i].a + bottom[i + 1].a;
        const long sb = top[i].b + top[i + 1].b + bottom[i].b + bottom[i + 1].b;
        const long saa =
            top[i].aa + top[i + 1].aa + bottom[i].aa + bottom[i + 1].aa;
        const long sbb =
            top[i].bb + top[i + 1].bb + bottom[i].bb + bottom[i + 1].bb;
        const long sab =
            top[i].ab + top[i + 1].ab + bottom[i].ab + bottom[i + 1].ab;
        constexpr double n = kWindow * kWindow;
        const double ma = sa / n;
        const double mb = sb / n;
        const double va = saa / n - ma * ma;
        const double vb = sbb / n - mb * mb;
        const double cov = sab / n - ma * mb;
        const double cs = (2.0 * cov + kC2) / (va + vb + kC2);
        const double l = (2.0 * ma * mb + kC1) / (ma * ma + mb * mb + kC1);
        cs_tile[j] = cs;
        ssim_tile[j] = l * cs;
      }
      for (int j = 0; j < n_win; ++j) {
        out.cs += cs_tile[j];
        out.ssim += ssim_tile[j];
      }
      out.windows += n_win;
    }
  }
  // Pixels outside every whole block: the right margin of the band's rows
  // and, in the last band, the bottom margin.
  const int y0 = static_cast<int>(wr_begin) * kStride;
  const int y1 = last ? nby * kStride : static_cast<int>(wr_end) * kStride;
  out.se += rect_se(a, b, nbx * kStride, a.width, y0, y1);
  if (last) out.se += rect_se(a, b, 0, a.width, y1, a.height);
  return out;
}

/// Tiles the window grid into row bands dispatched on the shared pool and
/// reduces the per-band sums in band order (deterministic for any pool
/// size; see kBandRows).
BandSums plane_sums(const video::Plane& a, const video::Plane& b) {
  const std::size_t n_wrows =
      static_cast<std::size_t>((a.height - kWindow) / kStride) + 1;
  const std::size_t n_bands = (n_wrows + kBandRows - 1) / kBandRows;
  const std::size_t row_blocks = static_cast<std::size_t>(a.width / kStride);
  // Per-thread band and block-row scratch: scoring runs per distinct
  // outcome per frame in the emulator, and these are the only allocations
  // on that path. Each band gets its own two block rows, so no two chunks
  // share scratch whichever workers run them. The local references are
  // load-bearing: thread_local variables are not captured by lambdas, so
  // without them each pool worker would touch its own (empty) instance
  // instead of the dispatcher's.
  thread_local std::vector<BandSums> bands_tls;
  thread_local std::vector<BlockSums> blocks_tls;
  std::vector<BandSums>& bands = bands_tls;
  std::vector<BlockSums>& blocks = blocks_tls;
  bands.assign(n_bands, BandSums{});
  blocks.resize(std::max(blocks.size(), n_bands * 2 * row_blocks));
  ThreadPool::shared().parallel_for(
      0, n_wrows, kBandRows, [&](std::size_t wr_begin, std::size_t wr_end) {
        const std::size_t band = wr_begin / kBandRows;
        bands[band] = band_sums(a, b, wr_begin, wr_end, wr_end == n_wrows,
                                blocks.data() + band * 2 * row_blocks);
      });
  BandSums total;
  for (const BandSums& s : bands) {
    total.ssim += s.ssim;
    total.cs += s.cs;
    total.windows += s.windows;
    total.se += s.se;
  }
  return total;
}

}  // namespace

Score score(const video::Plane& reference, const video::Plane& distorted) {
  check_same(reference, distorted);
  const BandSums s = plane_sums(reference, distorted);
  Score out;
  // Anti-correlated windows can push the mean below zero; clamp to the
  // documented [0, 1] range, consistent with ms_ssim's per-scale clamp
  // (zero structural similarity is the floor the pipeline reasons about).
  out.ssim = s.windows
                 ? std::max(s.ssim / static_cast<double>(s.windows), 0.0)
                 : 1.0;
  // The squared error is an exact integer (below 2^53 for any plane that
  // fits in memory), so its band order does not matter.
  const double mse = static_cast<double>(s.se) /
                     static_cast<double>(reference.pix.size());
  out.psnr = mse <= 0.0
                 ? 100.0
                 : std::min(100.0, 10.0 * std::log10(255.0 * 255.0 / mse));
  return out;
}

double ssim(const video::Plane& reference, const video::Plane& distorted) {
  return score(reference, distorted).ssim;
}

double ssim(const video::Frame& reference, const video::Frame& distorted) {
  return ssim(reference.y, distorted.y);
}

double psnr(const video::Plane& reference, const video::Plane& distorted) {
  return score(reference, distorted).psnr;
}

double psnr(const video::Frame& reference, const video::Frame& distorted) {
  return psnr(reference.y, distorted.y);
}

namespace {

/// 2x2 box downsampling (the MS-SSIM pyramid step), parallel over output
/// rows (each output pixel depends on disjoint inputs: bit-exact).
video::Plane downsample(const video::Plane& p) {
  video::Plane out(p.width / 2, p.height / 2);
  ThreadPool::shared().parallel_for(
      0, static_cast<std::size_t>(out.height), 64,
      [&](std::size_t y_begin, std::size_t y_end) {
        for (std::size_t yy = y_begin; yy < y_end; ++yy) {
          const int y = static_cast<int>(yy);
          for (int x = 0; x < out.width; ++x) {
            const int sum = p.at(2 * x, 2 * y) + p.at(2 * x + 1, 2 * y) +
                            p.at(2 * x, 2 * y + 1) + p.at(2 * x + 1, 2 * y + 1);
            out.at(x, y) = static_cast<std::uint8_t>((sum + 2) / 4);
          }
        }
      });
  return out;
}

// Standard MS-SSIM per-scale weights (Wang et al. 2003).
constexpr double kMsWeights[5] = {0.0448, 0.2856, 0.3001, 0.2363, 0.1333};

}  // namespace

double ms_ssim(const video::Plane& reference, const video::Plane& distorted,
               int scales) {
  check_same(reference, distorted);
  if (scales < 1 || scales > 5)
    throw std::invalid_argument("ms_ssim: scales must be in 1..5");
  const int min_dim = kWindow << (scales - 1);
  if (reference.width < min_dim || reference.height < min_dim)
    throw std::invalid_argument("ms_ssim: plane too small for scale count");

  video::Plane a = reference;
  video::Plane b = distorted;
  double result = 1.0;
  for (int s = 0; s < scales; ++s) {
    const BandSums sums = plane_sums(a, b);
    const double mean_ssim =
        sums.windows ? sums.ssim / static_cast<double>(sums.windows) : 1.0;
    const double mean_cs =
        sums.windows ? sums.cs / static_cast<double>(sums.windows) : 1.0;
    // cs term at every scale; the full SSIM (with luminance) only at the
    // coarsest. Negative terms (possible in pathological windows) are
    // clamped so the weighted geometric mean stays defined.
    const double term =
        s + 1 == scales ? std::max(mean_ssim, 0.0) : std::max(mean_cs, 0.0);
    result *= std::pow(term, kMsWeights[s]);
    if (s + 1 < scales) {
      a = downsample(a);
      b = downsample(b);
    }
  }
  return result;
}

double ms_ssim(const video::Frame& reference, const video::Frame& distorted,
               int scales) {
  return ms_ssim(reference.y, distorted.y, scales);
}

ContentFeatures content_features(const video::Frame& original,
                                 const video::EncodedFrame& encoded) {
  ContentFeatures f;
  // One workspace accumulates the layers: nothing received decodes to the
  // blank (mid-gray) frame, then each pass adds one whole layer.
  video::ReconstructWorkspace ws;
  video::Plane rec;
  ws.begin(encoded.width, encoded.height);
  ws.finish_luma(rec);
  Score s = score(original.y, rec);
  f.blank = s.ssim;
  f.blank_psnr = s.psnr;
  for (int l = 0; l < video::kNumLayers; ++l) {
    for (int k = 0; k < video::sublayer_count(l); ++k) {
      const auto& sub = encoded.layers[l][static_cast<std::size_t>(k)];
      ws.write(l, k, 0, sub.data(), sub.size());
    }
    ws.finish_luma(rec);
    s = score(original.y, rec);
    f.up_to_layer[static_cast<std::size_t>(l)] = s.ssim;
    f.up_to_layer_psnr[static_cast<std::size_t>(l)] = s.psnr;
  }
  return f;
}

}  // namespace w4k::quality
