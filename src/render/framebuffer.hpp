// In-memory RGB framebuffer with PPM (P6) input/output, and PixelView, the
// non-owning width x height block of pixels that every draw kernel writes.
//
// All ForestView rendering — desktop panes and display-wall tiles alike —
// rasterizes into PixelViews: a Framebuffer converts to one, and a wall node
// views the pixel part of its reply message, so a tile is rastered where it
// is sent from. The wall compositor stitches per-tile pixels into one
// frame, and tests compare buffers byte-exactly against a single-pass
// reference rendering.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "render/color.hpp"

namespace fv::render {

/// A row-major width x height block of pixels that someone else owns: a
/// Framebuffer's, or the pixel part of a message. Copying a view copies no
/// pixels; the pixels must outlive every use of it.
class PixelView {
 public:
  /// `pixels` holds width * height pixels (it may be null when that is 0).
  PixelView(Rgb8* pixels, std::size_t width, std::size_t height) noexcept
      : pixels_(pixels), width_(width), height_(height) {}

  std::size_t width() const noexcept { return width_; }
  std::size_t height() const noexcept { return height_; }

  /// Row `y` as a width()-pixel span; an out-of-range row throws. Bulk
  /// primitives clip once and then work on row spans, so the check is paid
  /// per row, not per pixel.
  std::span<Rgb8> row(std::size_t y) const;

  /// Clipped write: silently ignores out-of-bounds coordinates (callers
  /// rasterizing primitives near edges rely on this).
  void set_clipped(long x, long y, Rgb8 color) const;

 private:
  Rgb8* pixels_ = nullptr;
  std::size_t width_ = 0;
  std::size_t height_ = 0;
};

class Framebuffer {
 public:
  Framebuffer() = default;
  /// Starts zeroed, which is kBlack; any other `fill` is then written
  /// through render::fill_rect, the one fill kernel.
  Framebuffer(std::size_t width, std::size_t height,
              Rgb8 fill = colors::kBlack);

  std::size_t width() const noexcept { return width_; }
  std::size_t height() const noexcept { return height_; }
  std::size_t pixel_count() const noexcept { return pixels_.size(); }

  /// Unclipped accessors; out-of-range indices throw.
  Rgb8 at(std::size_t x, std::size_t y) const;
  void set(std::size_t x, std::size_t y, Rgb8 color);

  /// This framebuffer's pixels as a view, which every draw kernel takes.
  /// A temporary framebuffer does not convert: its view would dangle.
  operator PixelView() & noexcept {
    return PixelView(pixels_.data(), width_, height_);
  }

  /// Sets every pixel to `color` (through render::fill_rect).
  void clear(Rgb8 color);

  /// Copies `source` with its top-left corner at (x, y); parts that fall
  /// outside are clipped.
  void blit(const Framebuffer& source, long x, long y);

  /// Extracts a sub-rectangle (clipped to bounds).
  Framebuffer crop(long x, long y, std::size_t width,
                   std::size_t height) const;

  const std::vector<Rgb8>& pixels() const noexcept { return pixels_; }

  friend bool operator==(const Framebuffer&, const Framebuffer&) = default;

  /// Number of pixels differing from `other` (sizes must match).
  std::size_t diff_count(const Framebuffer& other) const;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<Rgb8> pixels_;
};

/// Serializes as binary PPM (P6).
std::string format_ppm(const Framebuffer& fb);
void write_ppm(const Framebuffer& fb, const std::string& path);

/// Parses binary PPM (P6, maxval 255). Throws ParseError on malformed input.
Framebuffer parse_ppm(const std::string& content);
Framebuffer read_ppm(const std::string& path);

}  // namespace fv::render
