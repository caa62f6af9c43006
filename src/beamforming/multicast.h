// Multicast beamforming (Sec. 2.5).
//
// For every candidate multicast group the sender derives a transmit beam,
// evaluates the per-member RSS, and maps the *minimum* member RSS to the
// group's MCS/UDP rate (the bottleneck member limits a multicast
// transmission). Four schemes, matching the paper's comparison:
//
//   kOptimizedMulticast  max-min via the SVD max-sum heuristic: the beam is
//                        the dominant right singular vector of the stacked
//                        channel matrix H = [h_1; ...; h_N] (Eq. 3);
//   kPredefinedMulticast best single codebook sector by min-member RSS;
//   kOptimizedUnicast    MRT beam conj(h)/||h|| (CSI-based; groups are
//                        restricted to singletons by the scheduler);
//   kPredefinedUnicast   best codebook sector for the single member.
#pragma once

#include "beamforming/codebook.h"
#include "channel/mcs.h"
#include "common/units.h"
#include "linalg/matrix.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace w4k::beamforming {

enum class Scheme {
  kOptimizedMulticast,
  kPredefinedMulticast,
  kOptimizedUnicast,
  kPredefinedUnicast,
};

/// True for the two schemes that may serve groups larger than one user.
bool allows_multicast(Scheme s);

/// Display name used by bench harness output.
std::string to_string(Scheme s);

struct GroupBeam {
  linalg::CVector beam;          ///< transmit precoder F (unit norm)
  std::vector<Dbm> member_rss;   ///< RSS at each group member
  Dbm min_rss{-300.0};           ///< bottleneck member
  Mbps rate{0.0};                ///< Table 2 UDP rate at min_rss (0 = unusable)
};

/// Derives the beam and rate for a group with the given member channels
/// into a reusable GroupBeam (its buffers keep their capacity across
/// calls). Unicast schemes require exactly one member (throws otherwise);
/// `codebook` is consulted only by the pre-defined schemes (may be empty
/// for the optimized ones). The SVD power iteration draws from a private
/// Rng(seed), so the result is a pure function of (scheme, channels,
/// codebook, seed) — what makes per-subset caching and parallel group
/// enumeration safe. The optimized schemes (MRT, SVD multicast) run
/// allocation-free in steady state; the pre-defined codebook schemes may
/// still allocate inside the sector search on first use.
void group_beam_into(Scheme scheme,
                     std::span<const linalg::CVector> member_channels,
                     const Codebook& codebook, std::uint64_t seed,
                     GroupBeam& out);

/// Evaluates an externally-derived unit-norm beam against member
/// channels into a reusable GroupBeam: per-member RSS, bottleneck RSS, and
/// the Table 2 rate at the bottleneck — the evaluation every scheme path of
/// group_beam_into performs.
void evaluate_beam_into(const linalg::CVector& beam,
                        std::span<const linalg::CVector> member_channels,
                        GroupBeam& out);

}  // namespace w4k::beamforming
