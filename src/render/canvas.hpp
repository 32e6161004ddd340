// Drawing-surface abstraction.
//
// ForestView's frame renderer draws onto a Canvas so the same code path
// serves two backends: FramebufferCanvas rasterizes immediately (desktop
// mode), while the wall module's RecordingCanvas captures the primitives as
// a command stream that is shipped to per-tile render nodes — the way the
// display wall distributes drawing across its cluster. Replaying a recorded
// stream through a FramebufferCanvas is pixel-identical to direct drawing,
// which the tests rely on.
#pragma once

#include <span>
#include <string_view>

#include "render/draw.hpp"
#include "render/framebuffer.hpp"

namespace fv::render {

class Canvas {
 public:
  virtual ~Canvas() = default;

  virtual void fill_rect(long x, long y, long width, long height,
                         Rgb8 color) = 0;
  virtual void draw_rect(long x, long y, long width, long height,
                         Rgb8 color) = 0;
  virtual void hline(long x0, long x1, long y, Rgb8 color) = 0;
  virtual void vline(long x, long y0, long y1, Rgb8 color) = 0;
  virtual void line(long x0, long y0, long x1, long y1, Rgb8 color) = 0;
  virtual void text(long x, long y, std::string_view content, Rgb8 color,
                    int scale) = 0;
  /// Row-major width x height pixel block (see render::draw_image).
  virtual void image(long x, long y, long width, long height,
                     std::span<const Rgb8> pixels) = 0;

  /// Convenience overload with scale 1.
  void text(long x, long y, std::string_view content, Rgb8 color) {
    text(x, y, content, color, 1);
  }
};

/// Immediate-mode canvas rasterizing into a framebuffer.
class FramebufferCanvas final : public Canvas {
 public:
  explicit FramebufferCanvas(Framebuffer& fb) : fb_(&fb) {}

  void fill_rect(long x, long y, long width, long height,
                 Rgb8 color) override {
    render::fill_rect(*fb_, x, y, width, height, color);
  }
  void draw_rect(long x, long y, long width, long height,
                 Rgb8 color) override {
    render::draw_rect(*fb_, x, y, width, height, color);
  }
  void hline(long x0, long x1, long y, Rgb8 color) override {
    render::draw_hline(*fb_, x0, x1, y, color);
  }
  void vline(long x, long y0, long y1, Rgb8 color) override {
    render::draw_vline(*fb_, x, y0, y1, color);
  }
  void line(long x0, long y0, long x1, long y1, Rgb8 color) override {
    render::draw_line(*fb_, x0, y0, x1, y1, color);
  }
  void text(long x, long y, std::string_view content, Rgb8 color,
            int scale) override {
    render::draw_text(*fb_, x, y, content, color, scale);
  }
  void image(long x, long y, long width, long height,
             std::span<const Rgb8> pixels) override {
    render::draw_image(*fb_, x, y, width, height, pixels);
  }

 private:
  Framebuffer* fb_;
};

}  // namespace fv::render
