// Render-command stream: the unit of work the wall master ships to its tile
// nodes. Each command is one Canvas primitive with enough geometry to cull
// it against a tile's rectangle, so each node gets only what it draws.
//
// An image command never owns a copy of its pixels. A recorded one shares
// the pixels the canvas was given (a kept global-view strip), so a
// recording stays valid, and replays to the same pixels, however long it
// is kept. A decoded one borrows the bytes of the message it was read
// from, which the reader keeps alive while it uses the commands.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layout/geometry.hpp"
#include "mpx/message.hpp"
#include "render/canvas.hpp"

namespace fv::wall {

enum class CommandType : std::uint8_t {
  kFillRect,
  kDrawRect,
  kHLine,
  kVLine,
  kLine,
  kText,
  kImage,  ///< appended last: the wire bytes of the other types stay put
};

struct RenderCommand {
  CommandType type = CommandType::kFillRect;
  long x0 = 0, y0 = 0, x1 = 0, y1 = 0;  ///< geometry; meaning depends on type
  render::Rgb8 color;
  std::int32_t scale = 1;  ///< text scale
  std::string text;        ///< text content (empty for non-text commands)
  /// Row-major x1 x y1 block of a kImage command (empty otherwise).
  render::SharedPixels image;

  /// Conservative bounding box in canvas coordinates (for tile culling).
  layout::Rect bounds() const;
};

using CommandList = std::vector<RenderCommand>;

/// Canvas backend that records primitives instead of rasterizing them.
class RecordingCanvas final : public render::Canvas {
 public:
  void fill_rect(long x, long y, long width, long height,
                 render::Rgb8 color) override;
  void draw_rect(long x, long y, long width, long height,
                 render::Rgb8 color) override;
  void hline(long x0, long x1, long y, render::Rgb8 color) override;
  void vline(long x, long y0, long y1, render::Rgb8 color) override;
  void line(long x0, long y0, long x1, long y1, render::Rgb8 color) override;
  void text(long x, long y, std::string_view content, render::Rgb8 color,
            int scale) override;
  void image(long x, long y, long width, long height,
             const render::SharedPixels& image) override;

  const CommandList& commands() const noexcept { return commands_; }
  CommandList take() { return std::move(commands_); }

 private:
  CommandList commands_;
};

/// Replays commands into a pixel view (a Framebuffer converts to one),
/// translating canvas coordinates by (-origin_x, -origin_y) — i.e. the view
/// shows the canvas region starting at that origin (a tile). Returns the
/// number of commands whose bounds intersected the view's region (after the
/// caller's cull this should equal commands.size()).
std::size_t replay_commands(render::PixelView target,
                            const CommandList& commands, long origin_x,
                            long origin_y);

/// Serialization for mpx transport. read_commands rejects a stream that
/// does not decode to valid commands (an unknown type byte, an image whose
/// size does not match its pixels) with fv::ParseError; a stream shorter
/// than it claims fails with the reader's fv::InvalidArgument. A decoded
/// image borrows its pixels from the reader's payload (a null owner), so
/// the commands are valid only while that payload is.
void write_commands(mpx::PayloadWriter& writer, const CommandList& commands);
CommandList read_commands(mpx::PayloadReader& reader);

/// Writes one command as write_commands does, except that an image is cut
/// to its intersection with `crop`, which must overlap it. A tile inside
/// `crop` rasters the same pixels from the cut image, and the cut image
/// overlaps the same tiles. Other types are written whole.
void write_command(mpx::PayloadWriter& writer, const RenderCommand& command,
                   const layout::Rect& crop);

/// Bytes write_command writes for the same arguments.
std::size_t wire_size(const RenderCommand& command, const layout::Rect& crop);

}  // namespace fv::wall
