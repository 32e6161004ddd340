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

/// Each type's value is its wire byte. Bytes 1 and 4 name no command.
enum class CommandType : std::uint8_t {
  kFillRect = 0,
  kHLine = 2,
  kVLine = 3,
  kText = 5,
  kImage = 6,
};

struct RenderCommand {
  CommandType type = CommandType::kFillRect;
  long x0 = 0, y0 = 0, x1 = 0, y1 = 0;  ///< geometry; meaning depends on type
  render::Rgb8 color;
  std::string text;  ///< text content (empty for non-text commands)
  /// Row-major x1 x y1 block of a kImage command (empty otherwise).
  render::SharedPixels image;

  /// Conservative bounding box in canvas coordinates (for tile culling).
  layout::Rect bounds() const;
};

/// The largest magnitude of any coordinate or size, and the longest text, a
/// valid command holds: 2^40, far past any canvas. It keeps bounds() within
/// +-2^43, so culling cannot overflow a long, and neither can replay at any
/// tile origin in [0, 2^62].
inline constexpr long kMaxCoordinate = 1L << 40;

/// Why `command` is not one the recorder can write, or nullptr when it is.
/// A valid command has one of the types above; an hline has y1 == y0 and a
/// vline x1 == x0; its coordinates, sizes and text length are at most
/// kMaxCoordinate in magnitude; and an image holds exactly x1 x y1 pixels.
/// RecordingCanvas rejects an invalid command with fv::InvalidArgument and
/// read_commands with fv::ParseError, so a node rasters only clipped fills,
/// spans, text and images.
const char* why_invalid(const RenderCommand& command);

using CommandList = std::vector<RenderCommand>;

/// Canvas backend that records primitives instead of rasterizing them.
class RecordingCanvas final : public render::Canvas {
 public:
  void fill_rect(long x, long y, long width, long height,
                 render::Rgb8 color) override;
  void hline(long x0, long x1, long y, render::Rgb8 color) override;
  void vline(long x, long y0, long y1, render::Rgb8 color) override;
  void text(long x, long y, std::string_view content,
            render::Rgb8 color) override;
  void image(long x, long y, long width, long height,
             const render::SharedPixels& image) override;

  const CommandList& commands() const noexcept { return commands_; }
  CommandList take() { return std::move(commands_); }

 private:
  void record(RenderCommand command);

  CommandList commands_;
};

/// Replays commands into a pixel view (a Framebuffer converts to one),
/// translating canvas coordinates by (-origin_x, -origin_y) — i.e. the view
/// shows the canvas region starting at that origin (a tile). Returns the
/// number of commands whose bounds intersected the view's region (after the
/// caller's cull this should equal commands.size()). The commands must be
/// valid (see why_invalid), as recorded and decoded ones are.
std::size_t replay_commands(render::PixelView target,
                            const CommandList& commands, long origin_x,
                            long origin_y);

/// Serialization for mpx transport. read_commands rejects a stream that
/// does not decode to valid commands (see why_invalid) with fv::ParseError;
/// a stream shorter than it claims fails with the reader's
/// fv::InvalidArgument. A decoded image borrows its pixels from the
/// reader's payload (a null owner), so the commands are valid only while
/// that payload is.
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
