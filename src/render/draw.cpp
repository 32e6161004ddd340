#include "render/draw.hpp"

#include <algorithm>
#include <cstdlib>

#include "render/font.hpp"
#include "util/error.hpp"

namespace fv::render {

namespace {

/// The part of a width x height rectangle at (x, y) that lies inside `fb`,
/// as [x0, x1) x [y0, y1); empty when x0 >= x1 or y0 >= y1.
struct Clip {
  long x0, y0, x1, y1;
  bool empty() const noexcept { return x0 >= x1 || y0 >= y1; }
};

Clip clip_to(const Framebuffer& fb, long x, long y, long width, long height) {
  return Clip{std::max(x, 0L), std::max(y, 0L),
              std::min(x + width, static_cast<long>(fb.width())),
              std::min(y + height, static_cast<long>(fb.height()))};
}

}  // namespace

void fill_rect(Framebuffer& fb, long x, long y, long width, long height,
               Rgb8 color) {
  if (width <= 0 || height <= 0) return;
  const Clip clip = clip_to(fb, x, y, width, height);
  if (clip.empty()) return;
  for (long py = clip.y0; py < clip.y1; ++py) {
    const auto row = fb.row(static_cast<std::size_t>(py));
    std::fill(row.begin() + clip.x0, row.begin() + clip.x1, color);
  }
}

bool image_size_matches(long width, long height, std::size_t pixel_count) {
  if (width < 0 || height < 0) return false;
  if (width == 0 || height == 0) return pixel_count == 0;
  const auto w = static_cast<std::size_t>(width);
  return pixel_count % w == 0 &&
         pixel_count / w == static_cast<std::size_t>(height);
}

void draw_image(Framebuffer& fb, long x, long y, long width, long height,
                std::span<const Rgb8> pixels) {
  if (width <= 0 || height <= 0) return;
  FV_REQUIRE(image_size_matches(width, height, pixels.size()),
             "image needs exactly width x height pixels");
  const Clip clip = clip_to(fb, x, y, width, height);
  if (clip.empty()) return;
  const auto stride = static_cast<std::size_t>(width);
  for (long py = clip.y0; py < clip.y1; ++py) {
    const auto from = pixels.subspan(
        static_cast<std::size_t>(py - y) * stride +
            static_cast<std::size_t>(clip.x0 - x),
        static_cast<std::size_t>(clip.x1 - clip.x0));
    std::copy(from.begin(), from.end(),
              fb.row(static_cast<std::size_t>(py)).begin() + clip.x0);
  }
}

void draw_rect(Framebuffer& fb, long x, long y, long width, long height,
               Rgb8 color) {
  if (width <= 0 || height <= 0) return;
  draw_hline(fb, x, x + width - 1, y, color);
  draw_hline(fb, x, x + width - 1, y + height - 1, color);
  draw_vline(fb, x, y, y + height - 1, color);
  draw_vline(fb, x + width - 1, y, y + height - 1, color);
}

void draw_hline(Framebuffer& fb, long x0, long x1, long y, Rgb8 color) {
  if (x0 > x1) std::swap(x0, x1);
  for (long x = x0; x <= x1; ++x) fb.set_clipped(x, y, color);
}

void draw_vline(Framebuffer& fb, long x, long y0, long y1, Rgb8 color) {
  if (y0 > y1) std::swap(y0, y1);
  for (long y = y0; y <= y1; ++y) fb.set_clipped(x, y, color);
}

void draw_line(Framebuffer& fb, long x0, long y0, long x1, long y1,
               Rgb8 color) {
  const long dx = std::labs(x1 - x0);
  const long dy = -std::labs(y1 - y0);
  const long sx = x0 < x1 ? 1 : -1;
  const long sy = y0 < y1 ? 1 : -1;
  long err = dx + dy;
  for (;;) {
    fb.set_clipped(x0, y0, color);
    if (x0 == x1 && y0 == y1) break;
    const long e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

long draw_text(Framebuffer& fb, long x, long y, std::string_view text,
               Rgb8 color, int scale) {
  FV_REQUIRE(scale >= 1, "text scale must be at least 1");
  long cursor = x;
  for (char c : text) {
    const auto& rows = glyph_rows(c);
    for (int gy = 0; gy < kGlyphHeight; ++gy) {
      const std::uint8_t bits = rows[static_cast<std::size_t>(gy)];
      for (int gx = 0; gx < kGlyphWidth; ++gx) {
        if ((bits & (1u << (kGlyphWidth - 1 - gx))) == 0) continue;
        // Each font pixel becomes a scale x scale block.
        for (int by = 0; by < scale; ++by) {
          for (int bx = 0; bx < scale; ++bx) {
            fb.set_clipped(cursor + gx * scale + bx, y + gy * scale + by,
                           color);
          }
        }
      }
    }
    cursor += static_cast<long>(kGlyphAdvance) * scale;
  }
  return cursor;
}

}  // namespace fv::render
