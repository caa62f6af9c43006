// Pre-computed per-frame state shared by the sender and the evaluation
// harness: the layered encoding, the quality-model content features, and
// the coding-unit layout. Building a context is the expensive part of a
// streaming step (encode + five luma reconstructions and scores), so sessions
// cycle through a small pool of contexts instead of re-encoding every
// simulated frame — the paper's clips are long, but their per-frame
// content features vary slowly.
#pragma once

#include "quality/metrics.h"
#include "sched/allocate.h"
#include "sched/unitmap.h"
#include "video/layered.h"
#include "video/synthetic.h"

#include <vector>

namespace w4k::core {

struct FrameContext {
  video::Frame original;
  video::EncodedFrame encoded;
  sched::FrameContent content;        ///< layer sizes + SSIM features
  std::vector<sched::UnitSpec> units; ///< coding-unit layout
  /// SSIM between this frame and the previous one in the clip (1.0 for the
  /// first frame); used by the ABR baselines' freeze model.
  double prev_frame_ssim = 1.0;
  /// PSNR of this frame against the blank (mid-gray) reference — pairs
  /// with content.blank_ssim so a deep-outage frame (nothing schedulable)
  /// can be scored without rebuilding the blank frame on the hot path.
  double blank_psnr = 0.0;
};

/// Builds the context for one frame. `previous` (may be null) enables the
/// prev_frame_ssim computation.
FrameContext make_frame_context(video::Frame frame,
                                const video::Frame* previous = nullptr,
                                std::size_t symbol_size = fec::kDefaultSymbolSize,
                                std::size_t symbols_per_unit =
                                    fec::kDefaultSymbolsPerUnit);

/// Builds contexts for `count` frames sampled from the start of a clip.
std::vector<FrameContext> make_contexts(const video::SyntheticVideo& clip,
                                        int count,
                                        std::size_t symbol_size =
                                            fec::kDefaultSymbolSize);

/// Splices every decoded unit's byte range of its sublayer from
/// ctx.encoded into `ws`, starting from nothing received (it calls
/// ws.begin()). Follow with ws.finish() or ws.finish_luma().
void splice_units(const FrameContext& ctx,
                  const std::vector<bool>& unit_decoded,
                  video::ReconstructWorkspace& ws);

/// Reconstructs the frame a user decoded: every decoded unit contributes
/// its byte range of its sublayer.
video::Frame reconstruct_from_units(const FrameContext& ctx,
                                    const std::vector<bool>& unit_decoded);

/// Reusable scratch of evaluate_users (capacity kept across frames).
struct EvalScratch {
  video::ReconstructWorkspace recon;
  video::Plane y;  ///< the reconstruction's luma, all the metrics read
};

/// How evaluate_users obtained each present user's score.
struct EvalCounts {
  std::size_t scored = 0;  ///< reconstructed and scored
  std::size_t reused = 0;  ///< copied from an equal set or the blank frame
};

/// Scores what each user decoded against ctx.original: ssim[u], psnr[u]
/// (luma) and decoded_fraction[u] for every user u with a row in
/// `decoded`. Users absent per `present` (empty = everyone present) score
/// 0 on all three. The result equals reconstruct_from_units + quality::
/// ssim/psnr per user, bit for bit, at a fraction of the cost:
///   - users with an equal unit set (the common case within a multicast
///     group) are reconstructed and scored once, the rest copy the score;
///   - the empty set decodes to the blank frame, whose scores the context
///     holds (content.blank_ssim, blank_psnr);
///   - only the luma plane is reconstructed, in one pass with both scores.
EvalCounts evaluate_users(const FrameContext& ctx,
                          const std::vector<std::vector<bool>>& decoded,
                          const std::vector<std::uint8_t>& present,
                          EvalScratch& scratch, std::vector<double>& ssim,
                          std::vector<double>& psnr,
                          std::vector<double>& decoded_fraction);

/// The rate-scale that maps Table 2 throughputs onto reduced-resolution
/// frames: rates are multiplied by frame_bytes / bytes-of-a-4K-frame so
/// the bandwidth-to-content ratio (and hence the whole operating regime)
/// matches the paper's full-4K testbed.
double rate_scale_for(int width, int height);

/// Symbol size scaled to the frame resolution so a frame consists of the
/// same number of symbols (~3000) as a 4K frame does at the paper's 6000 B
/// — keeping coding-unit granularity and packet counts representative.
std::size_t scaled_symbol_size(int width, int height);

}  // namespace w4k::core
