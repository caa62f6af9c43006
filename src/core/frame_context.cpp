#include "core/frame_context.h"

#include "obs/span.h"

#include <algorithm>

namespace w4k::core {

FrameContext make_frame_context(video::Frame frame,
                                const video::Frame* previous,
                                std::size_t symbol_size,
                                std::size_t symbols_per_unit) {
  FrameContext ctx;
  ctx.encoded = video::encode(frame);
  const quality::ContentFeatures f =
      quality::content_features(frame, ctx.encoded);
  ctx.units = sched::frame_units(frame.width(), frame.height(), symbol_size,
                                 symbols_per_unit);
  // Layer caps are the symbol-padded transmission sizes (sum of whole
  // symbols over the layer's coding units), not the raw byte sizes —
  // otherwise an allocation of exactly layer_bytes comes up a few symbols
  // short of decoding the final unit of each sublayer.
  for (int l = 0; l < video::kNumLayers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    ctx.content.layer_bytes[ls] = 0.0;
    ctx.content.up_to_layer_ssim[ls] = f.up_to_layer[ls];
  }
  for (const auto& u : ctx.units)
    ctx.content.layer_bytes[u.id.layer] +=
        static_cast<double>(u.k_symbols * symbol_size);
  ctx.content.blank_ssim = f.blank;
  ctx.blank_psnr = f.blank_psnr;
  if (previous != nullptr)
    ctx.prev_frame_ssim = quality::ssim(frame, *previous);
  ctx.original = std::move(frame);
  return ctx;
}

std::vector<FrameContext> make_contexts(const video::SyntheticVideo& clip,
                                        int count,
                                        std::size_t symbol_size) {
  std::vector<FrameContext> out;
  out.reserve(static_cast<std::size_t>(count));
  video::Frame prev;
  for (int t = 0; t < count && t < clip.frame_count(); ++t) {
    video::Frame f = clip.frame(t);
    out.push_back(make_frame_context(f, t > 0 ? &prev : nullptr,
                                     symbol_size));
    prev = std::move(f);
  }
  return out;
}

void splice_units(const FrameContext& ctx,
                  const std::vector<bool>& unit_decoded,
                  video::ReconstructWorkspace& ws) {
  ws.begin(ctx.encoded.width, ctx.encoded.height);
  for (std::size_t i = 0; i < ctx.units.size() && i < unit_decoded.size();
       ++i) {
    if (!unit_decoded[i]) continue;
    const sched::UnitSpec& u = ctx.units[i];
    const auto& src =
        ctx.encoded.layers[u.id.layer][static_cast<std::size_t>(u.sublayer_k)];
    ws.write(u.id.layer, u.sublayer_k, u.offset, src.data() + u.offset,
             u.source_bytes);
  }
}

video::Frame reconstruct_from_units(const FrameContext& ctx,
                                    const std::vector<bool>& unit_decoded) {
  video::ReconstructWorkspace ws;
  splice_units(ctx, unit_decoded, ws);
  video::Frame out;
  ws.finish(out);
  return out;
}

EvalCounts evaluate_users(const FrameContext& ctx,
                          const std::vector<std::vector<bool>>& decoded,
                          const std::vector<std::uint8_t>& present,
                          EvalScratch& scratch, std::vector<double>& ssim,
                          std::vector<double>& psnr,
                          std::vector<double>& decoded_fraction) {
  static obs::Stage& st_rec = obs::stage("session.quality.reconstruct");
  static obs::Stage& st_score = obs::stage("session.quality.score");
  const std::size_t n_users = decoded.size();
  const auto is_present = [&](std::size_t u) {
    return present.empty() || present[u] != 0;
  };
  ssim.assign(n_users, 0.0);
  psnr.assign(n_users, 0.0);
  decoded_fraction.assign(n_users, 0.0);
  EvalCounts counts;
  for (std::size_t u = 0; u < n_users; ++u) {
    if (!is_present(u)) continue;
    std::size_t n_decoded = 0;
    for (bool b : decoded[u]) n_decoded += b ? 1 : 0;
    decoded_fraction[u] =
        ctx.units.empty() ? 0.0
                          : static_cast<double>(n_decoded) /
                                static_cast<double>(ctx.units.size());
    if (n_decoded == 0) {
      ssim[u] = ctx.content.blank_ssim;
      psnr[u] = ctx.blank_psnr;
      ++counts.reused;
      continue;
    }
    std::size_t same = u;
    for (std::size_t v = 0; v < u && same == u; ++v)
      if (is_present(v) && decoded[v] == decoded[u]) same = v;
    if (same < u) {
      ssim[u] = ssim[same];
      psnr[u] = psnr[same];
      ++counts.reused;
      continue;
    }
    {
      obs::StageSpan span(st_rec);
      splice_units(ctx, decoded[u], scratch.recon);
      scratch.recon.finish_luma(scratch.y);
    }
    obs::StageSpan span(st_score);
    const quality::Score q = quality::score(ctx.original.y, scratch.y);
    ssim[u] = q.ssim;
    psnr[u] = q.psnr;
    ++counts.scored;
  }
  return counts;
}

double rate_scale_for(int width, int height) {
  return (static_cast<double>(width) * height) /
         (static_cast<double>(video::k4kWidth) * video::k4kHeight);
}

std::size_t scaled_symbol_size(int width, int height) {
  const double s = static_cast<double>(fec::kDefaultSymbolSize) *
                   rate_scale_for(width, height);
  return std::max<std::size_t>(40, static_cast<std::size_t>(s + 0.5));
}

}  // namespace w4k::core
