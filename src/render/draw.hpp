// 2-D drawing primitives over a PixelView: rectangles, pixel blocks,
// axis-aligned lines, bitmap text. These are the only operations the pane
// renderers and the display-wall command stream need. Each kernel writes
// only the pixels of its target view and keeps no pointer to the view, so
// the same kernels draw into a Framebuffer (which converts to a view) and
// into the pixel part of a wall node's reply message.
//
// fill_rect, draw_image, draw_rect and the horizontal and vertical lines
// clip once and then write whole row spans; draw_text clips each glyph
// block the same way. Their clipping cannot overflow: any long coordinates
// and sizes draw exactly the pixels of the rectangle or span that lie
// inside the view, and their cost depends on those pixels, not on the
// requested extent.
//
// draw_image only reads its pixels during the call. An image that must
// outlive the call, as a recorded frame's global-view strips do, is held
// by render::SharedPixels (canvas.hpp), never copied.
#pragma once

#include <span>
#include <string_view>

#include "render/framebuffer.hpp"

namespace fv::render {

/// Filled axis-aligned rectangle, clipped to the view. The one fill
/// kernel: Framebuffer's constructor and clear() fill through it too. It
/// fills the first clipped row and copies that row into the others.
void fill_rect(PixelView target, long x, long y, long width, long height,
               Rgb8 color);

/// True when a width x height image holds exactly `pixel_count` pixels. A
/// negative size never does, an empty one only with no pixels, and the check
/// cannot overflow.
bool image_size_matches(long width, long height, std::size_t pixel_count);

/// Row-major width x height block of pixels with its top-left corner at
/// (x, y), clipped to the view. A non-positive size draws nothing;
/// otherwise `pixels` must hold exactly width * height entries.
void draw_image(PixelView target, long x, long y, long width, long height,
                std::span<const Rgb8> pixels);

/// 1-pixel rectangle outline, clipped.
void draw_rect(PixelView target, long x, long y, long width, long height,
               Rgb8 color);

/// Horizontal / vertical lines between inclusive endpoints in either order
/// (dendrograms are all axis-aligned): the endpoints are clipped first, then
/// the clipped span is written.
void draw_hline(PixelView target, long x0, long x1, long y, Rgb8 color);
void draw_vline(PixelView target, long x, long y0, long y1, Rgb8 color);

/// Renders text with the 5x7 font; (x, y) is the top-left corner. Returns
/// the x coordinate just past the rendered text, x + text.size() *
/// kGlyphAdvance saturated at LONG_MAX. Each font pixel is clipped before
/// it is written and the walk stops at the right edge, so the cost is the
/// pixels written plus the characters left of the edge, whatever the
/// coordinates.
long draw_text(PixelView target, long x, long y, std::string_view text,
               Rgb8 color);

}  // namespace fv::render
