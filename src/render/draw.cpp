#include "render/draw.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "render/font.hpp"
#include "util/error.hpp"

namespace fv::render {

namespace {

/// The part of a width x height rectangle at (x, y) that lies inside `target`,
/// as [x0, x1) x [y0, y1); empty when x0 >= x1 or y0 >= y1.
struct Clip {
  long x0, y0, x1, y1;
  bool empty() const noexcept { return x0 >= x1 || y0 >= y1; }
};

/// min(start + length, limit) for length > 0 and limit >= 0. The sum is only
/// formed when it is below `limit`, so it cannot overflow.
long clipped_end(long start, long length, long limit) {
  return start >= limit - length ? limit : start + length;
}

/// Needs width > 0 and height > 0; any long coordinates and sizes clip
/// exactly.
Clip clip_to(PixelView target, long x, long y, long width, long height) {
  const auto target_width = static_cast<long>(target.width());
  const auto target_height = static_cast<long>(target.height());
  return Clip{std::max(x, 0L), std::max(y, 0L),
              clipped_end(x, width, target_width),
              clipped_end(y, height, target_height)};
}

/// start + length - 1 for length > 0, saturated at LONG_MAX (which lies
/// past every view, so the clipped pixels are the same).
long last_of(long start, long length) {
  return start > std::numeric_limits<long>::max() - (length - 1)
             ? std::numeric_limits<long>::max()
             : start + (length - 1);
}

/// The inclusive span [a, b] (endpoints in either order) clipped to
/// [0, limit), as its first and last coordinate; empty when first > last.
std::pair<long, long> clip_span(long a, long b, long limit) {
  if (a > b) std::swap(a, b);
  return {std::max(a, 0L), std::min(b, limit - 1)};
}

}  // namespace

void fill_rect(PixelView target, long x, long y, long width, long height,
               Rgb8 color) {
  if (width <= 0 || height <= 0) return;
  const Clip clip = clip_to(target, x, y, width, height);
  if (clip.empty()) return;
  // Every row of the rectangle is the same: fill the first clipped row span
  // and copy it into the rest.
  const auto x0 = static_cast<std::size_t>(clip.x0);
  const auto span = static_cast<std::size_t>(clip.x1 - clip.x0);
  Rgb8* const first = target.row(static_cast<std::size_t>(clip.y0)).data() + x0;
  std::fill_n(first, span, color);
  for (long py = clip.y0 + 1; py < clip.y1; ++py) {
    std::memcpy(target.row(static_cast<std::size_t>(py)).data() + x0, first,
                span * sizeof(Rgb8));
  }
}

bool image_size_matches(long width, long height, std::size_t pixel_count) {
  if (width < 0 || height < 0) return false;
  if (width == 0 || height == 0) return pixel_count == 0;
  const auto w = static_cast<std::size_t>(width);
  return pixel_count % w == 0 &&
         pixel_count / w == static_cast<std::size_t>(height);
}

void draw_image(PixelView target, long x, long y, long width, long height,
                std::span<const Rgb8> pixels) {
  if (width <= 0 || height <= 0) return;
  FV_REQUIRE(image_size_matches(width, height, pixels.size()),
             "image needs exactly width x height pixels");
  const Clip clip = clip_to(target, x, y, width, height);
  if (clip.empty()) return;
  const auto stride = static_cast<std::size_t>(width);
  for (long py = clip.y0; py < clip.y1; ++py) {
    const auto from = pixels.subspan(
        static_cast<std::size_t>(py - y) * stride +
            static_cast<std::size_t>(clip.x0 - x),
        static_cast<std::size_t>(clip.x1 - clip.x0));
    std::copy(from.begin(), from.end(),
              target.row(static_cast<std::size_t>(py)).begin() + clip.x0);
  }
}

void draw_rect(PixelView target, long x, long y, long width, long height,
               Rgb8 color) {
  if (width <= 0 || height <= 0) return;
  const long right = last_of(x, width);
  const long bottom = last_of(y, height);
  draw_hline(target, x, right, y, color);
  draw_hline(target, x, right, bottom, color);
  draw_vline(target, x, y, bottom, color);
  draw_vline(target, right, y, bottom, color);
}

void draw_hline(PixelView target, long x0, long x1, long y, Rgb8 color) {
  if (y < 0 || y >= static_cast<long>(target.height())) return;
  const auto [first, last] =
      clip_span(x0, x1, static_cast<long>(target.width()));
  if (first > last) return;
  const auto row = target.row(static_cast<std::size_t>(y));
  std::fill(row.begin() + first, row.begin() + last + 1, color);
}

void draw_vline(PixelView target, long x, long y0, long y1, Rgb8 color) {
  if (x < 0 || x >= static_cast<long>(target.width())) return;
  const auto [first, last] =
      clip_span(y0, y1, static_cast<long>(target.height()));
  for (long y = first; y <= last; ++y) {
    target.row(static_cast<std::size_t>(y))[static_cast<std::size_t>(x)] =
        color;
  }
}

long draw_text(PixelView target, long x, long y, std::string_view text,
               Rgb8 color) {
  const auto target_width = static_cast<long>(target.width());
  const auto target_height = static_cast<long>(target.height());
  // Where the text ends, saturated at LONG_MAX.
  const long max = std::numeric_limits<long>::max();
  const auto count = static_cast<long>(text.size());  // size() < LONG_MAX
  const long end = count > (max - std::max(x, 0L)) / kGlyphAdvance
                       ? max
                       : x + count * kGlyphAdvance;
  // y < target_height, so the glyph rows below cannot overflow.
  if (y >= target_height || y + kGlyphHeight <= 0) return end;
  long cursor = x;
  for (const char c : text) {
    // cursor < target_width on each pass, so cursor + kGlyphAdvance cannot
    // overflow.
    if (cursor >= target_width) break;
    if (cursor + kGlyphWidth > 0) {
      const auto& rows = glyph_rows(c);
      for (int gy = 0; gy < kGlyphHeight; ++gy) {
        const long py = y + gy;
        const std::uint8_t bits = rows[static_cast<std::size_t>(gy)];
        if (bits == 0 || py < 0 || py >= target_height) continue;
        const auto row = target.row(static_cast<std::size_t>(py));
        for (int gx = 0; gx < kGlyphWidth; ++gx) {
          const long px = cursor + gx;
          if ((bits & (1u << (kGlyphWidth - 1 - gx))) != 0 && px >= 0 &&
              px < target_width) {
            row[static_cast<std::size_t>(px)] = color;
          }
        }
      }
    }
    cursor += kGlyphAdvance;
  }
  return end;
}

}  // namespace fv::render
