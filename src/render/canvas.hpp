// Drawing-surface abstraction.
//
// A Canvas has the five primitives a frame draws: filled rectangles,
// horizontal and vertical spans, 5x7 text and row-major pixel images.
// ForestView's frame renderer draws onto a Canvas so the same code path
// serves two backends: FramebufferCanvas rasterizes immediately (desktop
// mode), while the wall module's RecordingCanvas captures the primitives as
// a command stream that is shipped to per-tile render nodes — the way the
// display wall distributes drawing across its cluster. Replaying a recorded
// stream through a FramebufferCanvas is pixel-identical to direct drawing,
// which the tests rely on.
//
// An image reaches a canvas as SharedPixels: its pixels and whatever keeps
// them alive. FramebufferCanvas draws them at once; RecordingCanvas keeps
// the owner in its command, so a recorded image shares the caller's pixels
// rather than copying them. That makes the lifetime rule of a kept
// global-view strip (core::GlobalViewStrips) simple: its pixels are never
// written again once shared, and a recording holds them for as long as it
// lives, whatever later frames recolor.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "render/draw.hpp"
#include "render/framebuffer.hpp"

namespace fv::render {

/// An image's row-major pixels and the owner that keeps them alive. A
/// null owner borrows: the pixels are valid only while their source is (a
/// wall node's decoded work message, which the node keeps through its
/// rasters). Holders of a non-null owner only read the pixels.
struct SharedPixels {
  std::span<const Rgb8> pixels;
  std::shared_ptr<const void> owner;
};

/// `pixels` moved into a new shared owner.
inline SharedPixels share_pixels(std::vector<Rgb8> pixels) {
  auto owner = std::make_shared<const std::vector<Rgb8>>(std::move(pixels));
  return SharedPixels{*owner, owner};
}

class Canvas {
 public:
  virtual ~Canvas() = default;

  virtual void fill_rect(long x, long y, long width, long height,
                         Rgb8 color) = 0;
  virtual void hline(long x0, long x1, long y, Rgb8 color) = 0;
  virtual void vline(long x, long y0, long y1, Rgb8 color) = 0;
  virtual void text(long x, long y, std::string_view content,
                    Rgb8 color) = 0;
  /// Row-major width x height pixel block (see render::draw_image).
  virtual void image(long x, long y, long width, long height,
                     const SharedPixels& image) = 0;
};

/// Immediate-mode canvas rasterizing into a pixel view (a Framebuffer
/// converts to one).
class FramebufferCanvas final : public Canvas {
 public:
  explicit FramebufferCanvas(PixelView target) : target_(target) {}

  void fill_rect(long x, long y, long width, long height,
                 Rgb8 color) override {
    render::fill_rect(target_, x, y, width, height, color);
  }
  void hline(long x0, long x1, long y, Rgb8 color) override {
    render::draw_hline(target_, x0, x1, y, color);
  }
  void vline(long x, long y0, long y1, Rgb8 color) override {
    render::draw_vline(target_, x, y0, y1, color);
  }
  void text(long x, long y, std::string_view content, Rgb8 color) override {
    render::draw_text(target_, x, y, content, color);
  }
  void image(long x, long y, long width, long height,
             const SharedPixels& image) override {
    render::draw_image(target_, x, y, width, height, image.pixels);
  }

 private:
  PixelView target_;
};

}  // namespace fv::render
