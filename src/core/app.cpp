#include "core/app.hpp"

#include "util/error.hpp"

namespace fv::core {

ForestViewApp::ForestViewApp(Session* session) : session_(session) {
  FV_REQUIRE(session != nullptr, "app needs a session");
}

render::Framebuffer ForestViewApp::render_desktop(
    const FrameConfig& config) {
  render::Framebuffer fb(static_cast<std::size_t>(config.width),
                         static_cast<std::size_t>(config.height));
  render::FramebufferCanvas canvas(fb);
  render_frame(*session_, canvas, config, desktop_strips_);
  return fb;
}

wall::CommandList ForestViewApp::record_frame(const FrameConfig& config) {
  wall::RecordingCanvas canvas;
  render_frame(*session_, canvas, config, wall_strips_);
  return canvas.take();
}

WallRender ForestViewApp::render_wall(
    const wall::WallSpec& spec, std::size_t node_count,
    const layout::PaneConfig* pane_config) {
  FrameConfig config;
  config.width = static_cast<long>(spec.total_width());
  config.height = static_cast<long>(spec.total_height());
  if (pane_config != nullptr) config.pane = *pane_config;
  const wall::CommandList commands = record_frame(config);
  auto result = wall::render_wall_frame(commands, spec, node_count);
  return WallRender{std::move(result.frame), result.stats, commands.size()};
}

}  // namespace fv::core
