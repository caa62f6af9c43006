#include "video/layered.h"

#include "common/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace w4k::video {
namespace {

/// Per-plane element count of one sublayer of `layer`.
std::size_t plane_elems(int layer, int w, int h) {
  switch (layer) {
    case 0: return static_cast<std::size_t>(w / 8) * (h / 8);
    case 1: return static_cast<std::size_t>(w / 8) * (h / 8);
    case 2: return static_cast<std::size_t>(w / 4) * (h / 4);
    case 3: return static_cast<std::size_t>(w / 2) * (h / 2);
    default: throw std::invalid_argument("bad layer index");
  }
}

int clamp_byte(int v) { return std::clamp(v, 0, 255); }

/// Quantizes a difference to the byte representation (d + 128, clamped).
std::uint8_t quantize_diff(int d) {
  return static_cast<std::uint8_t>(std::clamp(d + 128, 0, 255));
}

/// Recovers a difference from its byte representation.
int dequantize_diff(std::uint8_t b) { return static_cast<int>(b) - 128; }

/// Byte offset of one plane's slice inside each sublayer buffer:
/// base[l][k] for sublayer k of layer l.
using PlaneBase = std::array<std::array<std::size_t, 4>, kNumLayers>;

/// Rounded integer mean of the s x s block at (bx*s, by*s).
int block_mean(const Plane& p, int bx, int by, int s) {
  int sum = 0;
  const int x0 = bx * s;
  const int y0 = by * s;
  for (int dy = 0; dy < s; ++dy)
    for (int dx = 0; dx < s; ++dx) sum += p.at(x0 + dx, y0 + dy);
  return (sum + s * s / 2) / (s * s);
}

/// Encodes one plane, writing into the plane's slice of each sublayer
/// buffer. `base[l][k]` is the byte offset of this plane inside sublayer
/// buffer (l, k).
struct PlaneEncoder {
  const Plane& plane;
  EncodedFrame& out;
  const PlaneBase& base;

  void run() const {
    const int w8 = plane.width / 8;
    const int h8 = plane.height / 8;
    // Reconstructed means of the previous stage, kept so differences chain
    // against what the decoder will actually have (no drift).
    std::vector<int> m4rec(static_cast<std::size_t>(w8 * 2) * (h8 * 2));
    std::vector<int> m2rec(static_cast<std::size_t>(w8 * 4) * (h8 * 4));

    // Layer 0: 8x8 means.
    for (int by = 0; by < h8; ++by) {
      for (int bx = 0; bx < w8; ++bx) {
        const int m8 = block_mean(plane, bx, by, 8);
        out.layers[0][0][base[0][0] + static_cast<std::size_t>(by) * w8 + bx] =
            static_cast<std::uint8_t>(m8);
      }
    }
    // Layer 1: 4x4 means relative to parent 8x8.
    const int w4 = w8 * 2;
    for (int by = 0; by < h8 * 2; ++by) {
      for (int bx = 0; bx < w4; ++bx) {
        const int parent =
            out.layers[0][0][base[0][0] +
                             static_cast<std::size_t>(by / 2) * w8 + bx / 2];
        const int m4 = block_mean(plane, bx, by, 4);
        const int d = std::clamp(m4 - parent, -128, 127);
        const int k = (by % 2) * 2 + (bx % 2);
        out.layers[1][k][base[1][k] +
                         static_cast<std::size_t>(by / 2) * w8 + bx / 2] =
            quantize_diff(d);
        m4rec[static_cast<std::size_t>(by) * w4 + bx] = parent + d;
      }
    }
    // Layer 2: 2x2 means relative to parent 4x4.
    const int w2 = w8 * 4;
    for (int by = 0; by < h8 * 4; ++by) {
      for (int bx = 0; bx < w2; ++bx) {
        const int parent = m4rec[static_cast<std::size_t>(by / 2) * w4 + bx / 2];
        const int m2 = block_mean(plane, bx, by, 2);
        const int d = std::clamp(m2 - parent, -128, 127);
        const int k = (by % 2) * 2 + (bx % 2);
        out.layers[2][k][base[2][k] +
                         static_cast<std::size_t>(by / 2) * w4 + bx / 2] =
            quantize_diff(d);
        m2rec[static_cast<std::size_t>(by) * w2 + bx] = parent + d;
      }
    }
    // Layer 3: pixels relative to parent 2x2.
    const int w1 = plane.width;
    for (int y = 0; y < plane.height; ++y) {
      for (int x = 0; x < w1; ++x) {
        const int parent = m2rec[static_cast<std::size_t>(y / 2) * w2 + x / 2];
        const int d = std::clamp(plane.at(x, y) - parent, -128, 127);
        const int k = (y % 2) * 2 + (x % 2);
        out.layers[3][k][base[3][k] +
                         static_cast<std::size_t>(y / 2) * w2 + x / 2] =
            quantize_diff(d);
      }
    }
  }
};

/// Byte offsets of the Y/U/V plane slices inside each sublayer buffer.
struct PlaneBases {
  PlaneBase y{};
  PlaneBase u{};
  PlaneBase v{};
};

PlaneBases plane_bases(int width, int height) {
  PlaneBases b;
  for (int l = 0; l < kNumLayers; ++l) {
    const std::size_t ye = plane_elems(l, width, height);
    const std::size_t ce = plane_elems(l, width / 2, height / 2);
    for (int k = 0; k < sublayer_count(l); ++k) {
      b.y[l][static_cast<std::size_t>(k)] = 0;
      b.u[l][static_cast<std::size_t>(k)] = ye;
      b.v[l][static_cast<std::size_t>(k)] = ye + ce;
    }
  }
  return b;
}

void check_dims(int width, int height) {
  if (width <= 0 || height <= 0 || width % 16 != 0 || height % 16 != 0)
    throw std::invalid_argument(
        "layered codec: dimensions must be positive multiples of 16");
}

}  // namespace

std::size_t sublayer_bytes(int layer, int width, int height) {
  check_dims(width, height);
  return plane_elems(layer, width, height) +
         2 * plane_elems(layer, width / 2, height / 2);
}

std::size_t layer_bytes(int layer, int width, int height) {
  return sublayer_bytes(layer, width, height) *
         static_cast<std::size_t>(sublayer_count(layer));
}

std::size_t EncodedFrame::total_bytes() const {
  std::size_t n = 0;
  for (const auto& layer : layers)
    for (const auto& sub : layer) n += sub.size();
  return n;
}

PartialFrame PartialFrame::empty(int width, int height) {
  check_dims(width, height);
  PartialFrame p;
  p.width = width;
  p.height = height;
  for (int l = 0; l < kNumLayers; ++l)
    p.layers[l].resize(static_cast<std::size_t>(sublayer_count(l)));
  return p;
}

PartialFrame PartialFrame::full(const EncodedFrame& enc) {
  PartialFrame p = empty(enc.width, enc.height);
  for (int l = 0; l < kNumLayers; ++l)
    for (int k = 0; k < sublayer_count(l); ++k)
      p.layers[l][static_cast<std::size_t>(k)].segments.push_back(
          Segment{0, enc.layers[l][static_cast<std::size_t>(k)]});
  return p;
}

PartialFrame PartialFrame::up_to_layer(const EncodedFrame& enc, int layer) {
  PartialFrame p = empty(enc.width, enc.height);
  for (int l = 0; l <= layer && l < kNumLayers; ++l)
    for (int k = 0; k < sublayer_count(l); ++k)
      p.layers[l][static_cast<std::size_t>(k)].segments.push_back(
          Segment{0, enc.layers[l][static_cast<std::size_t>(k)]});
  return p;
}

std::size_t PartialFrame::layer_received(int layer) const {
  std::size_t n = 0;
  for (const auto& sub : layers[layer])
    for (const auto& seg : sub.segments) n += seg.bytes.size();
  return n;
}

EncodedFrame encode(const Frame& frame) {
  check_dims(frame.width(), frame.height());
  EncodedFrame out;
  out.width = frame.width();
  out.height = frame.height();
  for (int l = 0; l < kNumLayers; ++l) {
    out.layers[l].assign(
        static_cast<std::size_t>(sublayer_count(l)),
        std::vector<std::uint8_t>(
            sublayer_bytes(l, frame.width(), frame.height())));
  }
  const PlaneBases bases = plane_bases(frame.width(), frame.height());
  PlaneEncoder{frame.y, out, bases.y}.run();
  PlaneEncoder{frame.u, out, bases.u}.run();
  PlaneEncoder{frame.v, out, bases.v}.run();
  return out;
}

void ReconstructWorkspace::begin(int width, int height) {
  check_dims(width, height);
  width_ = width;
  height_ = height;
  // Reset to the "no information" default: 128 decodes as mid-gray for
  // layer 0 and as a zero difference for layers 1-3. assign() reuses each
  // buffer's capacity.
  for (int l = 0; l < kNumLayers; ++l) {
    const std::size_t sz = sublayer_bytes(l, width, height);
    bufs_[l].resize(static_cast<std::size_t>(sublayer_count(l)));
    for (auto& sub : bufs_[l]) sub.assign(sz, 128);
  }
}

void ReconstructWorkspace::write(int layer, int k, std::size_t offset,
                                 const std::uint8_t* data, std::size_t n) {
  auto& buf = bufs_[layer][static_cast<std::size_t>(k)];
  if (offset > buf.size()) return;  // malformed; ignore
  n = std::min(n, buf.size() - offset);
  std::copy(data, data + n,
            buf.begin() + static_cast<std::ptrdiff_t>(offset));
}

namespace {

using SublayerBufs =
    std::array<std::vector<std::vector<std::uint8_t>>, kNumLayers>;

// 8x8-block rows per parallel_for chunk, and 8x8 blocks per column tile
// of a block row. Each block decodes from its own bytes only, so neither
// split changes the output.
constexpr std::size_t kDecodeBandBlockRows = 8;
constexpr std::size_t kDecodeTileBlocks = 32;

/// One level of the decode tree over `n` parents in a row: parent x gets
/// children 2x and 2x+1 in row0 (sublayers 0 and 1) and in row1
/// (sublayers 2 and 3), each the parent plus its sublayer's difference
/// byte, which sits at the parent's index x. Means stay unclamped int16
/// (within [-256, 509]); only pixels (Out = uint8_t) are clamped.
template <typename In, typename Out>
void expand(const In* parent, std::size_t n,
            const std::array<const std::uint8_t*, 4>& d, Out* row0,
            Out* row1) {
  const auto child = [](int p, std::uint8_t b) {
    if constexpr (std::is_same_v<Out, std::uint8_t>)
      return static_cast<Out>(clamp_byte(p + dequantize_diff(b)));
    else
      return static_cast<Out>(p + dequantize_diff(b));
  };
  for (std::size_t x = 0; x < n; ++x) {
    const int p = parent[x];
    row0[2 * x] = child(p, d[0][x]);
    row0[2 * x + 1] = child(p, d[1][x]);
    row1[2 * x] = child(p, d[2][x]);
    row1[2 * x + 1] = child(p, d[3][x]);
  }
}

/// Byte pointers of the four sublayers of `layer` at element `i`.
std::array<const std::uint8_t*, 4> sublayers_at(
    const std::array<const std::uint8_t*, 4>& layer, std::size_t i) {
  return {layer[0] + i, layer[1] + i, layer[2] + i, layer[3] + i};
}

/// Decodes one plane from assembled sublayer buffers (missing bytes
/// already defaulted to "no information": 128): per 8x8 block, its layer-0
/// mean plus the layer-1 difference of each 4x4 child, plus the layer-2
/// difference of each 2x2 grandchild, plus the layer-3 difference of each
/// pixel. A sublayer stores a child's byte at its parent's raster index,
/// so each level expands a row of parents into two rows of children with
/// no per-pixel index arithmetic.
void decode_plane(Plane& plane, int width, int height,
                  const SublayerBufs& bufs, const PlaneBase& base) {
  plane.width = width;
  plane.height = height;
  // Every pixel is written below, so resize without clearing is enough.
  plane.pix.resize(static_cast<std::size_t>(width) *
                   static_cast<std::size_t>(height));
  const std::size_t w8 = static_cast<std::size_t>(width / 8);
  const std::size_t w4 = 2 * w8;
  const std::size_t w2 = 4 * w8;
  const std::size_t stride = static_cast<std::size_t>(width);
  const std::uint8_t* l0 = bufs[0][0].data() + base[0][0];
  std::array<const std::uint8_t*, 4> l1{}, l2{}, l3{};
  for (std::size_t k = 0; k < 4; ++k) {
    l1[k] = bufs[1][k].data() + base[1][k];
    l2[k] = bufs[2][k].data() + base[2][k];
    l3[k] = bufs[3][k].data() + base[3][k];
  }
  std::uint8_t* pix = plane.pix.data();
  ThreadPool::shared().parallel_for(
      0, static_cast<std::size_t>(height / 8), kDecodeBandBlockRows,
      [&](std::size_t by_begin, std::size_t by_end) {
        std::int16_t m4[2][2 * kDecodeTileBlocks];
        std::int16_t m2[4][4 * kDecodeTileBlocks];
        for (std::size_t by8 = by_begin; by8 < by_end; ++by8) {
          for (std::size_t x8 = 0; x8 < w8; x8 += kDecodeTileBlocks) {
            const std::size_t n8 = std::min(kDecodeTileBlocks, w8 - x8);
            const std::size_t i8 = by8 * w8 + x8;
            expand(l0 + i8, n8, sublayers_at(l1, i8), m4[0], m4[1]);
            for (std::size_t r = 0; r < 2; ++r) {
              const std::size_t i4 = (2 * by8 + r) * w4 + 2 * x8;
              expand(m4[r], 2 * n8, sublayers_at(l2, i4), m2[2 * r],
                     m2[2 * r + 1]);
            }
            for (std::size_t r = 0; r < 4; ++r) {
              const std::size_t i2 = (4 * by8 + r) * w2 + 4 * x8;
              std::uint8_t* o = pix + (8 * by8 + 2 * r) * stride + 8 * x8;
              expand(m2[r], 4 * n8, sublayers_at(l3, i2), o, o + stride);
            }
          }
        }
      });
}

}  // namespace

void ReconstructWorkspace::finish(Frame& out) const {
  const PlaneBases bases = plane_bases(width_, height_);
  decode_plane(out.y, width_, height_, bufs_, bases.y);
  decode_plane(out.u, width_ / 2, height_ / 2, bufs_, bases.u);
  decode_plane(out.v, width_ / 2, height_ / 2, bufs_, bases.v);
}

void ReconstructWorkspace::finish_luma(Plane& y) const {
  decode_plane(y, width_, height_, bufs_, plane_bases(width_, height_).y);
}

Frame reconstruct(const PartialFrame& partial) {
  ReconstructWorkspace ws;
  ws.begin(partial.width, partial.height);
  for (int l = 0; l < kNumLayers; ++l) {
    for (int k = 0; k < sublayer_count(l); ++k) {
      for (const Segment& seg :
           partial.layers[l][static_cast<std::size_t>(k)].segments) {
        ws.write(l, k, seg.offset, seg.bytes.data(), seg.bytes.size());
      }
    }
  }
  Frame out;
  ws.finish(out);
  return out;
}

Frame reconstruct_full(const EncodedFrame& enc) {
  return reconstruct(PartialFrame::full(enc));
}

}  // namespace w4k::video
