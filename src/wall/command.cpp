#include "wall/command.hpp"

#include <algorithm>

#include "render/font.hpp"
#include "util/error.hpp"

namespace fv::wall {

layout::Rect RenderCommand::bounds() const {
  switch (type) {
    case CommandType::kFillRect:
    case CommandType::kImage:
      return layout::Rect{x0, y0, x1, y1};  // x1/y1 hold width/height
    case CommandType::kHLine: {
      const long lo = std::min(x0, x1);
      return layout::Rect{lo, y0, std::max(x0, x1) - lo + 1, 1};
    }
    case CommandType::kVLine: {
      const long lo = std::min(y0, y1);
      return layout::Rect{x0, lo, 1, std::max(y0, y1) - lo + 1};
    }
    case CommandType::kText: {
      // render::text_width plus the trailing 1-px spacing; 1 when empty.
      const long width =
          static_cast<long>(text.size()) * render::kGlyphAdvance;
      return layout::Rect{x0, y0, std::max(width, 1L), render::kGlyphHeight};
    }
  }
  FV_ASSERT(false, "unhandled command type");
  return {};
}

const char* why_invalid(const RenderCommand& command) {
  switch (command.type) {
    case CommandType::kFillRect:
    case CommandType::kText:
    case CommandType::kImage:
      break;
    case CommandType::kHLine:
      if (command.y1 != command.y0) return "an hline needs y1 == y0";
      break;
    case CommandType::kVLine:
      if (command.x1 != command.x0) return "a vline needs x1 == x0";
      break;
    default:
      return "unknown render command type";
  }
  for (const long v : {command.x0, command.y0, command.x1, command.y1}) {
    if (v < -kMaxCoordinate || v > kMaxCoordinate) {
      return "a coordinate or size exceeds kMaxCoordinate";
    }
  }
  if (command.text.size() > static_cast<std::size_t>(kMaxCoordinate)) {
    return "the text is longer than kMaxCoordinate bytes";
  }
  if (command.type == CommandType::kImage &&
      !render::image_size_matches(command.x1, command.y1,
                                  command.image.pixels.size())) {
    return "image needs exactly width x height pixels";
  }
  return nullptr;
}

void RecordingCanvas::record(RenderCommand command) {
  const char* defect = why_invalid(command);
  FV_REQUIRE(defect == nullptr, defect);
  commands_.push_back(std::move(command));
}

void RecordingCanvas::fill_rect(long x, long y, long width, long height,
                                render::Rgb8 color) {
  if (width <= 0 || height <= 0) return;
  record(RenderCommand{CommandType::kFillRect, x, y, width, height, color,
                       {}, {}});
}

void RecordingCanvas::hline(long x0, long x1, long y, render::Rgb8 color) {
  record(RenderCommand{CommandType::kHLine, x0, y, x1, y, color, {}, {}});
}

void RecordingCanvas::vline(long x, long y0, long y1, render::Rgb8 color) {
  record(RenderCommand{CommandType::kVLine, x, y0, x, y1, color, {}, {}});
}

void RecordingCanvas::text(long x, long y, std::string_view content,
                           render::Rgb8 color) {
  record(RenderCommand{CommandType::kText, x, y, 0, 0, color,
                       std::string(content), {}});
}

void RecordingCanvas::image(long x, long y, long width, long height,
                            const render::SharedPixels& image) {
  if (width <= 0 || height <= 0) return;
  // Shared, not copied: the recording keeps the pixels' owner, so it needs
  // one.
  FV_REQUIRE(image.owner != nullptr, "a recorded image needs an owner");
  record(RenderCommand{CommandType::kImage, x, y, width, height, {}, {},
                       image});
}

std::size_t replay_commands(render::PixelView target,
                            const CommandList& commands, long origin_x,
                            long origin_y) {
  render::FramebufferCanvas canvas(target);
  const layout::Rect viewport{origin_x, origin_y,
                              static_cast<long>(target.width()),
                              static_cast<long>(target.height())};
  std::size_t executed = 0;
  for (const RenderCommand& command : commands) {
    if (!layout::overlaps(command.bounds(), viewport)) continue;
    ++executed;
    const long x0 = command.x0 - origin_x;
    const long y0 = command.y0 - origin_y;
    switch (command.type) {
      case CommandType::kFillRect:
        canvas.fill_rect(x0, y0, command.x1, command.y1, command.color);
        break;
      case CommandType::kHLine:
        canvas.hline(x0, command.x1 - origin_x, y0, command.color);
        break;
      case CommandType::kVLine:
        canvas.vline(x0, y0, command.y1 - origin_y, command.color);
        break;
      case CommandType::kText:
        canvas.text(x0, y0, command.text, command.color);
        break;
      case CommandType::kImage:
        canvas.image(x0, y0, command.x1, command.y1, command.image);
        break;
    }
  }
  return executed;
}

namespace {

/// Wire size of the fields every command carries: type, four coordinates,
/// color and the text length.
constexpr std::size_t kCommonBytes = 1 + 4 * 8 + 3 + 8;

/// The geometry fields as a Rect (for an image: its position and size).
layout::Rect geometry_of(const RenderCommand& command) {
  return layout::Rect{command.x0, command.y0, command.x1, command.y1};
}

/// The fields every command carries, with `geometry` as x0, y0, x1, y1.
void write_common(mpx::PayloadWriter& writer, const RenderCommand& command,
                  const layout::Rect& geometry) {
  writer.write<std::uint8_t>(static_cast<std::uint8_t>(command.type));
  writer.write<std::int64_t>(geometry.x);
  writer.write<std::int64_t>(geometry.y);
  writer.write<std::int64_t>(geometry.width);
  writer.write<std::int64_t>(geometry.height);
  writer.write<std::uint8_t>(command.color.r);
  writer.write<std::uint8_t>(command.color.g);
  writer.write<std::uint8_t>(command.color.b);
  writer.write_string(command.text);
}

void write_whole(mpx::PayloadWriter& writer, const RenderCommand& command) {
  write_common(writer, command, geometry_of(command));
  if (command.type == CommandType::kImage) {
    writer.write_span(command.image.pixels);
  }
}

}  // namespace

void write_commands(mpx::PayloadWriter& writer, const CommandList& commands) {
  writer.write<std::uint64_t>(commands.size());
  for (const RenderCommand& command : commands) write_whole(writer, command);
}

void write_command(mpx::PayloadWriter& writer, const RenderCommand& command,
                   const layout::Rect& crop) {
  const layout::Rect whole = geometry_of(command);
  const layout::Rect kept = layout::intersect(whole, crop);
  if (command.type != CommandType::kImage || kept == whole) {
    write_whole(writer, command);
    return;
  }
  write_common(writer, command, kept);
  const auto width = static_cast<std::size_t>(kept.width);
  writer.write<std::uint64_t>(width * static_cast<std::size_t>(kept.height));
  const std::span<const render::Rgb8> pixels = command.image.pixels;
  for (long y = kept.y; y < kept.bottom(); ++y) {
    writer.write_values(pixels.subspan(
        static_cast<std::size_t>((y - whole.y) * whole.width +
                                 (kept.x - whole.x)),
        width));
  }
}

std::size_t wire_size(const RenderCommand& command, const layout::Rect& crop) {
  const std::size_t common = kCommonBytes + command.text.size();
  if (command.type != CommandType::kImage) return common;
  const layout::Rect kept = layout::intersect(geometry_of(command), crop);
  return common + sizeof(std::uint64_t) +
         static_cast<std::size_t>(kept.width * kept.height) *
             sizeof(render::Rgb8);
}

CommandList read_commands(mpx::PayloadReader& reader) {
  const auto count = reader.read<std::uint64_t>();
  if (count > reader.remaining() / kCommonBytes) {
    throw ParseError("command stream claims " + std::to_string(count) +
                     " commands but holds " +
                     std::to_string(reader.remaining()) + " bytes");
  }
  CommandList commands;
  commands.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    RenderCommand command;
    command.type = static_cast<CommandType>(reader.read<std::uint8_t>());
    command.x0 = static_cast<long>(reader.read<std::int64_t>());
    command.y0 = static_cast<long>(reader.read<std::int64_t>());
    command.x1 = static_cast<long>(reader.read<std::int64_t>());
    command.y1 = static_cast<long>(reader.read<std::int64_t>());
    command.color.r = reader.read<std::uint8_t>();
    command.color.g = reader.read<std::uint8_t>();
    command.color.b = reader.read<std::uint8_t>();
    command.text = reader.read_string();
    if (command.type == CommandType::kImage) {
      // Borrowed from the message, not copied out of it.
      command.image.pixels = reader.read_span<render::Rgb8>();
    }
    if (const char* defect = why_invalid(command)) {
      throw ParseError("render command " + std::to_string(i) + ": " + defect);
    }
    commands.push_back(std::move(command));
  }
  return commands;
}

}  // namespace fv::wall
