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

class ForestViewApp {
 public:
  /// Holds a reference; the session must outlive the app.
  explicit ForestViewApp(Session* session);

  /// Renders directly into a framebuffer (desktop path).
  render::Framebuffer render_desktop(const FrameConfig& config) const;

  /// Records the frame as a command stream (what the wall master ships).
  wall::CommandList record_frame(const FrameConfig& config) const;

  /// Renders on the simulated wall: the frame is laid out at the wall's
  /// full resolution, recorded, distributed over mpx, rasterized per tile
  /// and composited.
  WallRender render_wall(const wall::WallSpec& spec,
                         std::size_t node_count = 0,
                         const layout::PaneConfig* pane_config =
                             nullptr) const;

 private:
  Session* session_;
};

}  // namespace fv::core
