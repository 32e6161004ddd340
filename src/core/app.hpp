// ForestViewApp: couples a Session with the rendering backends — a desktop
// framebuffer or the simulated display wall ("scalable for use in both a
// desktop/laptop setting and … very large-format display devices", §2).
#pragma once

#include "core/frame.hpp"
#include "wall/wall_display.hpp"

namespace fv::core {

struct WallRender {
  render::Framebuffer frame;
  wall::FrameStats stats;
  std::size_t commands = 0;  ///< size of the recorded stream
};

/// Renders one session's frames. The app keeps each output's global-view
/// strips across frames (GlobalViewStrips: one per dataset for the desktop,
/// one per dataset for the wall), so a frame colors a pane's whole-genome
/// overview only when its dataset, colormap or size changed. Frames are
/// pixel-identical to rendering with nothing kept.
///
/// An app renders from one thread at a time: the render calls update the
/// kept strips, so they are not const.
class ForestViewApp {
 public:
  /// Holds a reference; the session must outlive the app.
  explicit ForestViewApp(Session* session);

  /// Renders directly into a framebuffer (desktop path).
  render::Framebuffer render_desktop(const FrameConfig& config);

  /// Records the frame as a command stream (what the wall master ships).
  wall::CommandList record_frame(const FrameConfig& config);

  /// Renders on the simulated wall: the frame is laid out at the wall's
  /// full resolution, recorded, distributed over mpx, rasterized per tile
  /// and composited.
  WallRender render_wall(const wall::WallSpec& spec,
                         std::size_t node_count = 0,
                         const layout::PaneConfig* pane_config = nullptr);

  /// The strips kept for desktop frames and for recorded (wall) frames.
  const GlobalViewStrips& desktop_strips() const noexcept {
    return desktop_strips_;
  }
  const GlobalViewStrips& wall_strips() const noexcept {
    return wall_strips_;
  }

 private:
  Session* session_;
  GlobalViewStrips desktop_strips_;
  GlobalViewStrips wall_strips_;
};

}  // namespace fv::core
