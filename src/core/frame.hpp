// ForestView frame renderer: turns a Session into the multi-pane display of
// paper Figure 2 — one vertical pane per dataset, each with a header, a
// whole-genome global view with selection highlights, the gene dendrogram,
// the synchronized (or per-dataset-order) zoom view of the selection, and
// gene labels.
//
// The renderer draws through the Canvas interface, so the identical code
// path produces a desktop framebuffer (FramebufferCanvas) or a wall command
// stream (RecordingCanvas).
#pragma once

#include <memory>
#include <vector>

#include "core/session.hpp"
#include "layout/pane.hpp"
#include "render/canvas.hpp"

namespace fv::core {

struct FrameConfig {
  long width = 1600;
  long height = 1200;
  long pane_gap = 4;
  layout::PaneConfig pane;  ///< sub-rectangle budgets within each pane
};

struct FrameInfo {
  std::size_t panes_rendered = 0;
  std::size_t zoom_rows_rendered = 0;  ///< summed over panes
  std::size_t cells_rendered = 0;      ///< zoom-view heatmap cells
  /// Global-view strips colored this frame; a pane whose strip was kept
  /// from an earlier frame adds nothing.
  std::size_t strips_computed = 0;
};

/// The global-view strips of one output (a desktop window, a wall), kept
/// across the frames of one session: at most one strip per dataset, and
/// after each frame only the strips of the datasets whose pane drew a
/// global view in it.
///
/// A strip is keyed by everything render::global_view_pixels reads: the
/// dataset index, the colormap's scheme and contrast, and the strip's width
/// and height. A session's datasets are immutable and append-only, so an
/// index names the same matrix and display order for the session's
/// lifetime. A frame recolors a strip only when its key changed; a new size
/// replaces the dataset's old strip, so memory stays at one strip per
/// dataset however often the output is resized.
///
/// Lifetime rule: a strip's pixels are never written after it is handed
/// out. A recolor fills a fresh buffer and drops this object's share of the
/// old one, so a recorded frame (wall::RecordingCanvas), which shares the
/// strips it drew, keeps them alive and replays to the same pixels however
/// many frames later it is replayed.
///
/// Use one instance with one session. It is not thread-safe: one thread
/// renders through it at a time.
class GlobalViewStrips {
 public:
  /// The strip of `dataset_index` at width x height (both > 0) in
  /// `colormap`, colored now unless the same key was colored before, and
  /// marked as drawn in this frame. Sets `computed` to whether it was
  /// colored. The owner keeps the pixels valid, unchanged.
  render::SharedPixels strip(const Session& session,
                             std::size_t dataset_index,
                             const render::ExpressionColormap& colormap,
                             long width, long height, bool& computed);

  /// Ends a frame: drops every strip not drawn since the last call.
  void finish_frame() noexcept;

  /// Strips held, at most one per dataset.
  std::size_t size() const noexcept;
  /// Bytes of pixel storage held across all strips.
  std::size_t bytes() const noexcept;

 private:
  struct Strip {
    render::ColorScheme scheme = render::ColorScheme::kRedGreen;
    double contrast = 0.0;
    long width = 0;
    long height = 0;
    /// Null: nothing held. Never written once set.
    std::shared_ptr<const std::vector<render::Rgb8>> pixels;
    bool drawn = false;  ///< drawn since the last finish_frame
  };
  std::vector<Strip> strips_;  ///< indexed by dataset
};

/// Renders one full frame of the session onto the canvas, drawing each
/// global view from `strips` (see GlobalViewStrips) and then finishing the
/// strips' frame. Every pixel is the same whatever `strips` already holds.
FrameInfo render_frame(const Session& session, render::Canvas& canvas,
                       const FrameConfig& config, GlobalViewStrips& strips);

}  // namespace fv::core
