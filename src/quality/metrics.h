// Full-reference video quality metrics (stand-in for the paper's FFmpeg
// SSIM computation).
//
// SSIM follows Wang et al. 2004 in the FFmpeg variant: 8x8 box windows
// with stride 4 on the luma plane, C1 = (0.01*255)^2, C2 = (0.03*255)^2.
// PSNR is the standard 10*log10(255^2 / MSE) on luma.
#pragma once

#include "video/frame.h"
#include "video/layered.h"

#include <array>

namespace w4k::quality {

/// SSIM and PSNR of one plane pair, both from a single pass over the
/// pixels.
struct Score {
  double ssim = 0.0;
  double psnr = 0.0;
};

/// Mean SSIM and PSNR between two planes of identical dimensions; ssim()
/// and psnr() below return its two fields.
/// Throws std::invalid_argument on dimension mismatch or a plane smaller
/// than one 8x8 window.
Score score(const video::Plane& reference, const video::Plane& distorted);

/// Mean SSIM between two luma planes of identical dimensions.
double ssim(const video::Plane& reference, const video::Plane& distorted);

/// Mean SSIM on the luma planes of two frames.
double ssim(const video::Frame& reference, const video::Frame& distorted);

/// PSNR in dB on luma; identical planes yield +inf capped at 100 dB
/// (FFmpeg's convention for lossless frames).
double psnr(const video::Plane& reference, const video::Plane& distorted);
double psnr(const video::Frame& reference, const video::Frame& distorted);

/// Multi-scale SSIM (Wang et al. 2003): SSIM evaluated over a dyadic
/// pyramid with the standard five per-scale exponents. More faithful to
/// perceived 4K quality than single-scale SSIM because coarse-structure
/// errors (exactly what losing low layers causes) are weighted across
/// scales. Requires luma at least 2^(scales-1) * 8 in both dimensions.
double ms_ssim(const video::Plane& reference, const video::Plane& distorted,
               int scales = 5);
double ms_ssim(const video::Frame& reference, const video::Frame& distorted,
               int scales = 5);

/// The quality-model features of Sec. 2.3 that depend only on content:
/// cumulative SSIM when everything up to layer i is received, and the SSIM
/// of the blank (mid-gray) frame. The same references scored by PSNR come
/// from the same passes.
struct ContentFeatures {
  /// up_to[i]: SSIM of the reconstruction from layers 0..i complete.
  std::array<double, video::kNumLayers> up_to_layer{};
  double blank = 0.0;
  std::array<double, video::kNumLayers> up_to_layer_psnr{};
  double blank_psnr = 0.0;
};

/// Computes the content features for a frame given its encoding.
ContentFeatures content_features(const video::Frame& original,
                                 const video::EncodedFrame& encoded);

}  // namespace w4k::quality
