#include "beamforming/multicast.h"

#include "channel/array.h"
#include "common/rng.h"
#include "linalg/decompose.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace w4k::beamforming {

void evaluate_beam_into(const linalg::CVector& beam,
                        std::span<const linalg::CVector> channels,
                        GroupBeam& g) {
  g.beam = beam;  // copy-assign: capacity reused
  g.member_rss.clear();
  g.min_rss = Dbm{1e300};
  for (const auto& h : channels) {
    const Dbm rss = channel::beam_rss(h, beam);
    g.member_rss.push_back(rss);
    g.min_rss = std::min(g.min_rss, rss);
  }
  g.rate = channel::rate_for_rss(g.min_rss);
}

namespace {

// A zeroed channel (corrupt CSI sanitized upstream, or a fully blocked
// link) has no direction to steer toward: any beam is equally useless, so
// use a uniform one and let beam_rss report the link as dead (-300 dBm)
// instead of throwing on normalization.
void uniform_beam_into(std::size_t n, linalg::CVector& out) {
  out.resize_zero(std::max<std::size_t>(1, n));
  const double mag = 1.0 / std::sqrt(static_cast<double>(out.size()));
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = linalg::Complex(mag, 0.0);
}

/// MRT beam conj(h)/||h|| into a reusable vector. Bit-identical to
/// h.conj().normalized(): norm(conj(x)) sums the same re^2 + im^2 terms,
/// and the element-wise complex /= double matches normalized()'s loop.
void mrt_beam_into(const linalg::CVector& h, linalg::CVector& out) {
  const double n = h.norm();
  if (n <= 0.0) {
    uniform_beam_into(h.size(), out);
    return;
  }
  out.resize_zero(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    out[i] = std::conj(h[i]);
    out[i] /= n;
  }
}

/// Per-thread scratch of the optimized schemes. Pool workers run
/// group_beam_into on whatever masks their chunks hold, so every buffer is
/// sized to its bound on the thread's first call, whichever scheme or group
/// size that call has: a worker that has only beamed singletons so far
/// does not allocate when it first meets a multi-member group.
struct BeamScratch {
  linalg::CVector beam;               ///< MRT or uniform beam
  std::vector<linalg::Complex> rows;  ///< normalized member rows
  linalg::DominantSVD svd;            ///< power-iteration result + scratch
  std::size_t cols = 0;               ///< width the buffers are sized for

  /// Sizes for channels up to `n` entries: n x n rows (every short-wide
  /// stack), an n x n Gram, n-long vectors.
  void fit(std::size_t n) {
    if (n <= cols) return;
    beam.resize_zero(n);
    rows.reserve(n * n);
    svd.reserve(n);
    cols = n;
  }
};

void best_codebook_beam_into(std::span<const linalg::CVector> channels,
                             const Codebook& codebook, GroupBeam& best) {
  if (codebook.size() == 0)
    throw std::invalid_argument("pre-defined scheme needs a codebook");
  thread_local GroupBeam cand;
  best.min_rss = Dbm{-1e300};
  best.rate = Mbps{0.0};
  for (std::size_t k = 0; k < codebook.size(); ++k) {
    evaluate_beam_into(codebook[k], channels, cand);
    if (cand.min_rss > best.min_rss) best = cand;
  }
}

}  // namespace

bool allows_multicast(Scheme s) {
  return s == Scheme::kOptimizedMulticast || s == Scheme::kPredefinedMulticast;
}

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::kOptimizedMulticast: return "optimized-multicast";
    case Scheme::kPredefinedMulticast: return "pre-defined-multicast";
    case Scheme::kOptimizedUnicast: return "optimized-unicast";
    case Scheme::kPredefinedUnicast: return "pre-defined-unicast";
  }
  return "unknown";
}

void group_beam_into(Scheme scheme,
                     std::span<const linalg::CVector> channels,
                     const Codebook& codebook, std::uint64_t seed,
                     GroupBeam& out) {
  if (channels.empty())
    throw std::invalid_argument("group_beam: empty group");
  if (!allows_multicast(scheme) && channels.size() != 1)
    throw std::invalid_argument(
        "group_beam: unicast scheme with a multi-member group");

  thread_local BeamScratch scratch;
  scratch.fit(channels[0].size());

  switch (scheme) {
    case Scheme::kOptimizedUnicast:
      // MRT: F = conj(h) / ||h|| maximizes |F . h|.
      mrt_beam_into(channels[0], scratch.beam);
      evaluate_beam_into(scratch.beam, channels, out);
      return;
    case Scheme::kPredefinedUnicast:
    case Scheme::kPredefinedMulticast:
      best_codebook_beam_into(channels, codebook, out);
      return;
    case Scheme::kOptimizedMulticast: {
      if (channels.size() == 1) {
        mrt_beam_into(channels[0], scratch.beam);
        evaluate_beam_into(scratch.beam, channels, out);
        return;
      }
      // Max-sum SVD heuristic for the NP-hard max-min problem: F is the
      // dominant right singular vector of the stacked channel matrix
      // (Sec. 2.5). The rows are *normalized* channels: with raw rows the
      // max-sum beam pours all power toward the strongest member and
      // starves the weak one — the opposite of the max-min intent. On
      // direction-only rows the SVD splits power across the members'
      // subspaces, which tracks min-RSS far better while keeping the
      // same O(N_t^2 N) cost. Dead (zero) members add no row.
      std::vector<linalg::Complex>& rows = scratch.rows;
      rows.clear();
      std::size_t cols = 0;
      for (const auto& h : channels) {
        const double n = h.norm();
        if (n <= 0.0) continue;
        if (cols == 0) cols = h.size();
        if (h.size() != cols)
          throw std::invalid_argument(
              "group_beam: member channels differ in size");
        for (const linalg::Complex& x : h.raw()) rows.push_back(x / n);
      }
      if (rows.empty()) {
        uniform_beam_into(channels[0].size(), scratch.beam);
        evaluate_beam_into(scratch.beam, channels, out);
        return;
      }
      Rng rng(seed);
      linalg::dominant_right_singular_into(rows, cols, rng, scratch.svd);
      evaluate_beam_into(scratch.svd.right_singular, channels, out);
      return;
    }
  }
  throw std::logic_error("group_beam: unhandled scheme");
}

}  // namespace w4k::beamforming
