// Tests for the display-wall substrate: command recording/serialization,
// tile culling, and — the key invariant — byte-exact equivalence between the
// composited wall frame and single-pass reference rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/app.hpp"
#include "core/session.hpp"
#include "expr/synth.hpp"
#include "render/canvas.hpp"
#include "render/draw.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wall/command.hpp"
#include "wall/wall_display.hpp"

namespace {

namespace wl = fv::wall;
namespace rd = fv::render;

/// Records a deterministic pseudo-random scene covering every primitive.
wl::CommandList random_scene(std::uint64_t seed, long width, long height,
                             std::size_t commands = 120) {
  fv::Rng rng(seed);
  wl::RecordingCanvas canvas;
  for (std::size_t i = 0; i < commands; ++i) {
    const long x = static_cast<long>(rng.uniform_u64(
        static_cast<std::uint64_t>(width)));
    const long y = static_cast<long>(rng.uniform_u64(
        static_cast<std::uint64_t>(height)));
    const long w = 1 + static_cast<long>(rng.uniform_u64(80));
    const long h = 1 + static_cast<long>(rng.uniform_u64(60));
    const rd::Rgb8 color{static_cast<std::uint8_t>(rng.uniform_u64(256)),
                         static_cast<std::uint8_t>(rng.uniform_u64(256)),
                         static_cast<std::uint8_t>(rng.uniform_u64(256))};
    switch (rng.uniform_u64(7)) {
      case 0:
        canvas.fill_rect(x, y, w, h, color);
        break;
      case 1:  // an outline
        canvas.hline(x, x + w - 1, y, color);
        canvas.hline(x, x + w - 1, y + h - 1, color);
        canvas.vline(x, y, y + h - 1, color);
        canvas.vline(x + w - 1, y, y + h - 1, color);
        break;
      case 2:
        canvas.hline(x, x + w, y, color);
        break;
      case 3:
        canvas.vline(x, y, y + h, color);
        break;
      case 4:  // a corner, drawn from its far ends
        canvas.hline(x + w, x, y, color);
        canvas.vline(x + w, y + h, y, color);
        break;
      case 5: {
        // Shifted up-left so some images start off-canvas at negative
        // coordinates; up to 80x60 they also straddle tile seams.
        std::vector<rd::Rgb8> pixels(static_cast<std::size_t>(w * h));
        for (auto& pixel : pixels) {
          pixel = rd::Rgb8{static_cast<std::uint8_t>(rng.uniform_u64(256)),
                           color.g, static_cast<std::uint8_t>(i)};
        }
        canvas.image(x - 40, y - 30, w, h, rd::share_pixels(std::move(pixels)));
        break;
      }
      default:
        canvas.text(x, y, "GENE" + std::to_string(i), color);
        break;
    }
  }
  return canvas.take();
}

/// True when `pixels` lie within `bytes`.
bool lies_inside(std::span<const rd::Rgb8> pixels,
                 const std::vector<std::byte>& bytes) {
  const auto* first = reinterpret_cast<const std::byte*>(pixels.data());
  return std::less_equal<>()(bytes.data(), first) &&
         std::less_equal<>()(first + pixels.size_bytes(),
                             bytes.data() + bytes.size());
}

TEST(CommandTest, RecordingCapturesPrimitives) {
  wl::RecordingCanvas canvas;
  canvas.fill_rect(1, 2, 3, 4, rd::colors::kRed);
  canvas.text(5, 6, "ABC", rd::colors::kWhite);
  canvas.fill_rect(0, 0, 0, 5, rd::colors::kRed);  // degenerate: dropped
  const auto block =
      rd::share_pixels(std::vector<rd::Rgb8>(6, rd::colors::kBlue));
  canvas.image(-1, 3, 3, 2, block);
  canvas.image(0, 0, 0, 2, {});  // 0-width image: dropped
  const auto& commands = canvas.commands();
  ASSERT_EQ(commands.size(), 3u);
  EXPECT_EQ(commands[0].type, wl::CommandType::kFillRect);
  EXPECT_EQ(commands[1].type, wl::CommandType::kText);
  EXPECT_EQ(commands[1].text, "ABC");
  EXPECT_EQ(commands[1].bounds(), (fv::layout::Rect{5, 6, 18, 7}));
  EXPECT_EQ(commands[2].type, wl::CommandType::kImage);
  // The recorded image shares the block's storage and its owner.
  EXPECT_EQ(commands[2].image.pixels.data(), block.pixels.data());
  EXPECT_EQ(commands[2].image.pixels.size(), 6u);
  EXPECT_EQ(commands[2].image.owner, block.owner);
  EXPECT_EQ(commands[2].bounds(), (fv::layout::Rect{-1, 3, 3, 2}));
  // The span must hold exactly width x height pixels, and a recording
  // cannot keep pixels that nothing owns.
  EXPECT_THROW(canvas.image(0, 0, 2, 2, block), fv::InvalidArgument);
  EXPECT_THROW(canvas.image(0, 0, 3, 2, rd::SharedPixels{block.pixels, {}}),
               fv::InvalidArgument);
  EXPECT_EQ(canvas.commands().size(), 3u);
}

TEST(CommandTest, BoundsCoverGeometry) {
  wl::RecordingCanvas canvas;
  canvas.hline(10, 3, 7, rd::colors::kRed);  // reversed endpoints
  const auto bounds = canvas.commands()[0].bounds();
  EXPECT_EQ(bounds, (fv::layout::Rect{3, 7, 8, 1}));
  wl::RecordingCanvas canvas2;
  canvas2.vline(5, 9, 2, rd::colors::kRed);  // reversed endpoints
  const auto line_bounds = canvas2.commands()[0].bounds();
  EXPECT_EQ(line_bounds.x, 5);
  EXPECT_EQ(line_bounds.y, 2);
  EXPECT_EQ(line_bounds.right(), 6);
  EXPECT_EQ(line_bounds.bottom(), 10);
}

TEST(CommandTest, SerializationRoundTrip) {
  const auto commands = random_scene(5, 300, 200, 50);
  ASSERT_TRUE(std::any_of(commands.begin(), commands.end(), [](const auto& c) {
    return c.type == wl::CommandType::kImage;
  }));
  fv::mpx::PayloadWriter writer;
  wl::write_commands(writer, commands);
  const auto payload = writer.take();
  fv::mpx::PayloadReader reader(payload);
  const auto parsed = wl::read_commands(reader);
  ASSERT_EQ(parsed.size(), commands.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].type, commands[i].type);
    EXPECT_EQ(parsed[i].x0, commands[i].x0);
    EXPECT_EQ(parsed[i].y1, commands[i].y1);
    EXPECT_EQ(parsed[i].color, commands[i].color);
    EXPECT_EQ(parsed[i].text, commands[i].text);
    EXPECT_TRUE(std::ranges::equal(parsed[i].image.pixels,
                                   commands[i].image.pixels));
    if (parsed[i].type == wl::CommandType::kImage) {
      EXPECT_TRUE(lies_inside(parsed[i].image.pixels, payload));
    }
  }
  // The exact size a work message reserves: the count, then each command
  // uncropped.
  std::size_t expected = sizeof(std::uint64_t);
  for (const auto& command : commands) {
    expected += wl::wire_size(command, command.bounds());
  }
  EXPECT_EQ(payload.size(), expected);
}

/// A hand-built one-command stream: the common fields with geometry `x0`,
/// `y0`, `x1`, `y1`, then, for an image, a span of `image_count` pixels.
std::vector<std::byte> hand_built_stream(std::uint8_t type, std::int64_t x0,
                                         std::int64_t y0, std::int64_t x1,
                                         std::int64_t y1,
                                         std::uint64_t image_count = 0) {
  fv::mpx::PayloadWriter writer;
  writer.write<std::uint64_t>(1);
  writer.write<std::uint8_t>(type);
  for (const std::int64_t v : {x0, y0, x1, y1}) writer.write<std::int64_t>(v);
  for (int i = 0; i < 3; ++i) writer.write<std::uint8_t>(0);
  writer.write_string("");
  if (type == static_cast<std::uint8_t>(wl::CommandType::kImage)) {
    const std::vector<rd::Rgb8> pixels(image_count);
    writer.write_span(std::span<const rd::Rgb8>(pixels));
  }
  return writer.take();
}

wl::CommandList decode(const std::vector<std::byte>& bytes) {
  fv::mpx::PayloadReader reader(bytes);
  return wl::read_commands(reader);
}

TEST(CommandTest, HostileStreamsFailTyped) {
  // A count far beyond the bytes present must not reach reserve().
  fv::mpx::PayloadWriter huge;
  huge.write<std::uint64_t>(std::uint64_t{1} << 60);
  huge.write<std::uint64_t>(0);
  EXPECT_THROW(decode(huge.take()), fv::ParseError);

  const auto fill = static_cast<std::uint8_t>(wl::CommandType::kFillRect);
  const auto hline = static_cast<std::uint8_t>(wl::CommandType::kHLine);
  const auto vline = static_cast<std::uint8_t>(wl::CommandType::kVLine);
  const auto image = static_cast<std::uint8_t>(wl::CommandType::kImage);
  // The type byte must name a command; 1 and 4 name none.
  for (const int type : {1, 4, image + 1, 0xff}) {
    EXPECT_THROW(decode(hand_built_stream(static_cast<std::uint8_t>(type), 0,
                                          0, 1, 1)),
                 fv::ParseError)
        << type;
  }
  // An hline is one row and a vline one column.
  EXPECT_THROW(decode(hand_built_stream(hline, 0, 0, 5, 1)), fv::ParseError);
  EXPECT_THROW(decode(hand_built_stream(vline, 0, 0, 1, 5)), fv::ParseError);
  // Geometry whose bounds or tile offset would overflow a long: a span
  // across the whole long range, and a fill whose right edge lies past
  // LONG_MAX.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(decode(hand_built_stream(hline, kMin, 0, kMax, 0)),
               fv::ParseError);
  EXPECT_THROW(decode(hand_built_stream(fill, kMax, 0, 1, 1)),
               fv::ParseError);
  EXPECT_THROW(decode(hand_built_stream(fill, 0, 0, wl::kMaxCoordinate + 1,
                                        1)),
               fv::ParseError);
  EXPECT_THROW(decode(hand_built_stream(vline, 0, -wl::kMaxCoordinate - 1, 0,
                                        0)),
               fv::ParseError);
  // An image's size must be non-negative and match its pixel count, with
  // no overflowing product slipping through.
  EXPECT_THROW(decode(hand_built_stream(image, 0, 0, -2, -3, 6)),
               fv::ParseError);
  EXPECT_THROW(decode(hand_built_stream(image, 0, 0, std::int64_t{1} << 32,
                                        std::int64_t{1} << 32, 0)),
               fv::ParseError);
  EXPECT_THROW(decode(hand_built_stream(image, 0, 0, 2, 2, 3)),
               fv::ParseError);
  // The same shapes, well formed, decode, up to the coordinate cap.
  EXPECT_EQ(
      decode(hand_built_stream(image, 0, 0, 2, 2, 4))[0].image.pixels.size(),
      4u);
  EXPECT_EQ(decode(hand_built_stream(fill, 0, 0, 2, 2)).size(), 1u);
  EXPECT_EQ(decode(hand_built_stream(hline, -wl::kMaxCoordinate, 3,
                                     wl::kMaxCoordinate, 3))
                .size(),
            1u);
  EXPECT_EQ(decode(hand_built_stream(vline, 4, 0, 4, 1)).size(), 1u);
}

// The recorder holds the commands it records to the decoder's rule, with
// fv::InvalidArgument, and records nothing it rejects.
TEST(CommandTest, RecorderRejectsWhatTheDecoderRejects) {
  constexpr long kMin = std::numeric_limits<long>::min();
  constexpr long kMax = std::numeric_limits<long>::max();
  wl::RecordingCanvas canvas;
  EXPECT_THROW(canvas.hline(kMin, kMax, 0, rd::colors::kRed),
               fv::InvalidArgument);
  EXPECT_THROW(canvas.fill_rect(kMax, 0, 1, 1, rd::colors::kRed),
               fv::InvalidArgument);
  EXPECT_THROW(canvas.fill_rect(0, 0, wl::kMaxCoordinate + 1, 1,
                                rd::colors::kRed),
               fv::InvalidArgument);
  EXPECT_THROW(canvas.vline(0, 0, -wl::kMaxCoordinate - 1, rd::colors::kRed),
               fv::InvalidArgument);
  EXPECT_THROW(canvas.text(kMin, 0, "ORF", rd::colors::kRed),
               fv::InvalidArgument);
  const auto block =
      rd::share_pixels(std::vector<rd::Rgb8>(2, rd::colors::kBlue));
  EXPECT_THROW(canvas.image(0, kMax, 2, 1, block), fv::InvalidArgument);
  EXPECT_TRUE(canvas.commands().empty());
  // At the cap itself, each records.
  canvas.hline(-wl::kMaxCoordinate, wl::kMaxCoordinate, 0, rd::colors::kRed);
  canvas.text(wl::kMaxCoordinate, -wl::kMaxCoordinate, "ORF",
              rd::colors::kRed);
  canvas.image(0, wl::kMaxCoordinate, 2, 1, block);
  EXPECT_EQ(canvas.commands().size(), 3u);
  for (const auto& command : canvas.commands()) {
    EXPECT_EQ(wl::why_invalid(command), nullptr);
  }
}

/// `stream` truncated, with a few bits flipped, or with a copy of one of
/// its segments spliced in at another offset, as `rng` picks.
std::vector<std::byte> mutated(const std::vector<std::byte>& stream,
                               fv::Rng& rng) {
  std::vector<std::byte> bytes = stream;
  switch (rng.uniform_u64(3)) {
    case 0:  // truncate
      bytes.resize(rng.uniform_u64(bytes.size()));
      break;
    case 1:  // flip a few bits
      for (auto flips = 1 + rng.uniform_u64(8); flips > 0; --flips) {
        bytes[rng.uniform_u64(bytes.size())] ^=
            std::byte{static_cast<unsigned char>(1u << rng.uniform_u64(8))};
      }
      break;
    default: {  // splice a copy of one segment in at another offset
      const auto from = rng.uniform_u64(bytes.size());
      const auto length = 1 + rng.uniform_u64(std::min<std::uint64_t>(
                                  256, bytes.size() - from));
      const std::vector<std::byte> segment(
          bytes.begin() + static_cast<std::ptrdiff_t>(from),
          bytes.begin() + static_cast<std::ptrdiff_t>(from + length));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                       rng.uniform_u64(bytes.size())),
                   segment.begin(), segment.end());
      break;
    }
  }
  return bytes;
}

/// Rasters `work` as a node does and checks each reply: a tile of `spec`,
/// rastered with at most `commands` commands.
void raster_checked(std::span<const std::byte> work, const wl::WallSpec& spec,
                    std::size_t commands) {
  wl::raster_work(work, spec, [&](std::vector<std::byte> reply) {
    fv::mpx::PayloadReader reader(reply);
    ASSERT_LT(reader.read<std::uint64_t>(), spec.tile_count());
    ASSERT_LE(reader.read<std::uint64_t>(), commands);
  });
}

/// Seeded mutation fuzzing of read_commands over a real recorded frame:
/// truncations, bit flips and splices must each decode or fail with a
/// typed fv::Error, never an untyped exception or a crash, and a stream
/// that decodes rasters on every tile of the frame's wall.
TEST(CommandFuzzTest, MutatedFrameStreamsDecodeOrFailTyped) {
  fv::expr::CompendiumSpec spec;
  spec.genome = fv::expr::GenomeSpec::yeast_like(120);
  spec.seed = 9;
  auto compendium = fv::expr::make_compendium(spec);
  fv::core::Session session(std::move(compendium.datasets));
  session.select_region(0, 5, 12);
  fv::core::FrameConfig config;
  config.width = 240;
  config.height = 160;
  fv::mpx::PayloadWriter writer;
  wl::write_commands(writer,
                     fv::core::ForestViewApp(&session).record_frame(config));
  const std::vector<std::byte> stream = writer.take();
  ASSERT_GT(stream.size(), 1000u);
  // The frame's wall, and the work message suffix naming all its tiles.
  const wl::WallSpec wall{2, 2, 120, 80};
  fv::mpx::PayloadWriter tiles;
  tiles.write_span(std::span<const std::uint64_t>(
      std::vector<std::uint64_t>{0, 1, 2, 3}));
  const std::vector<std::byte> tile_ids = tiles.take();

  fv::Rng rng(0xf022);
  std::size_t decoded = 0, rejected = 0;
  for (int iteration = 0; iteration < 1500; ++iteration) {
    std::vector<std::byte> bytes = mutated(stream, rng);
    try {
      const wl::CommandList commands = decode(bytes);
      for (const auto& command : commands) {
        ASSERT_EQ(wl::why_invalid(command), nullptr);
        if (command.type == wl::CommandType::kImage) {
          // Borrowed from the message: the pixels lie inside its bytes.
          ASSERT_TRUE(lies_inside(command.image.pixels, bytes));
          ASSERT_EQ(command.image.owner, nullptr);
        }
      }
      ++decoded;
      // The same stream as the start of a work message for every tile.
      bytes.insert(bytes.end(), tile_ids.begin(), tile_ids.end());
      raster_checked(bytes, wall, commands.size());
    } catch (const fv::Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(CommandTest, ReplayEqualsDirectDrawing) {
  const long width = 320, height = 240;
  const auto commands = random_scene(7, width, height);
  const auto replayed = wl::render_reference(commands, width, height);
  // Reference = replay at origin; an independent replay must agree exactly.
  rd::Framebuffer again(width, height);
  wl::replay_commands(again, commands, 0, 0);
  EXPECT_EQ(replayed, again);
}

TEST(CommandTest, ReplayOffsetShowsSubRegion) {
  wl::RecordingCanvas canvas;
  canvas.fill_rect(100, 100, 10, 10, rd::colors::kRed);
  const auto commands = canvas.take();
  rd::Framebuffer tile(20, 20);
  const std::size_t executed = wl::replay_commands(tile, commands, 95, 95);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(tile.at(5, 5), rd::colors::kRed);
  EXPECT_EQ(tile.at(4, 4), rd::colors::kBlack);
  // A far-away tile culls the command entirely.
  rd::Framebuffer far_tile(20, 20);
  EXPECT_EQ(wl::replay_commands(far_tile, commands, 500, 500), 0u);
}

TEST(WallSpecTest, TileGeometry) {
  const wl::WallSpec spec{3, 2, 100, 80};
  EXPECT_EQ(spec.tile_count(), 6u);
  EXPECT_EQ(spec.total_width(), 300u);
  EXPECT_EQ(spec.total_height(), 160u);
  EXPECT_EQ(spec.tile_rect(0), (fv::layout::Rect{0, 0, 100, 80}));
  EXPECT_EQ(spec.tile_rect(4), (fv::layout::Rect{100, 80, 100, 80}));
  EXPECT_THROW(spec.tile_rect(6), fv::InvalidArgument);
}

TEST(WallSpecTest, PaperConfigurations) {
  EXPECT_EQ(wl::WallSpec::princeton_wall().tile_count(), 24u);
  // The paper's "two orders of magnitude" claim: wall pixels vs 2-Mpixel
  // desktop (high resolution AND scale).
  const double ratio =
      static_cast<double>(wl::WallSpec::princeton_wall().total_pixels()) /
      2e6;
  EXPECT_GT(ratio, 9.0);  // resolution alone ~9.4x; scale supplies the rest
}

TEST(WallFrameTest, CompositeMatchesReferenceExactly) {
  const wl::WallSpec spec{3, 2, 64, 48};
  const auto commands = random_scene(11, static_cast<long>(spec.total_width()),
                                     static_cast<long>(spec.total_height()));
  const auto reference = wl::render_reference(commands, spec.total_width(),
                                              spec.total_height());
  const auto result = wl::render_wall_frame(commands, spec);
  EXPECT_EQ(result.frame, reference)
      << "wall composite diverged from reference";
  EXPECT_EQ(result.stats.commands_total, commands.size());
  EXPECT_GT(result.stats.commands_executed, 0u);
  EXPECT_GT(result.stats.bytes_distributed, 0u);
  EXPECT_EQ(result.stats.pixels, spec.total_pixels());
}

TEST(WallFrameTest, FewerNodesThanTilesStillExact) {
  const wl::WallSpec spec{4, 2, 40, 30};
  const auto commands = random_scene(13, static_cast<long>(spec.total_width()),
                                     static_cast<long>(spec.total_height()));
  const auto reference = wl::render_reference(commands, spec.total_width(),
                                              spec.total_height());
  for (const std::size_t nodes : {1u, 2u, 3u}) {
    const auto result = wl::render_wall_frame(commands, spec, nodes);
    EXPECT_EQ(result.frame, reference) << nodes << " nodes";
  }
}

TEST(WallFrameTest, PointToPointShipsFewerBytesForLocalScenes) {
  // A scene confined to tile 0: its owner gets the 50 commands, and every
  // other node gets an empty command list plus its one tile id.
  const wl::WallSpec spec{4, 1, 50, 50};
  wl::RecordingCanvas canvas;
  for (int i = 0; i < 50; ++i) {
    canvas.fill_rect(5 + i % 10, 5 + i / 10, 3, 3, rd::colors::kGreen);
  }
  const auto commands = canvas.take();
  fv::mpx::PayloadWriter owner;
  wl::write_commands(owner, commands);
  const std::size_t scene_bytes = owner.take().size();
  // u64 command count + u64 tile count + u64 tile id.
  const std::size_t idle_bytes = 3 * sizeof(std::uint64_t);

  const auto result = wl::render_wall_frame(commands, spec);
  EXPECT_EQ(result.frame, wl::render_reference(commands, spec.total_width(),
                                               spec.total_height()));
  EXPECT_EQ(result.stats.bytes_distributed,
            scene_bytes + 2 * sizeof(std::uint64_t) +
                (spec.tile_count() - 1) * idle_bytes);
}

TEST(WallFrameTest, CullingSkipsOffTileCommands) {
  const wl::WallSpec spec{2, 1, 50, 50};
  wl::RecordingCanvas canvas;
  canvas.fill_rect(10, 10, 5, 5, rd::colors::kRed);    // tile 0 only
  canvas.fill_rect(60, 10, 5, 5, rd::colors::kGreen);  // tile 1 only
  const auto commands = canvas.take();
  const auto result = wl::render_wall_frame(commands, spec);
  // Each command executes on exactly one tile: 2 commands, 2 executions.
  EXPECT_EQ(result.stats.commands_executed, 2u);
}

TEST(WallFrameTest, TileIdsBeyondSixteenBitsCompositeInPlace) {
  // 65,792 one-pixel tiles: tile 65,536 must land at (1, 255), not over
  // tile 0.
  const wl::WallSpec spec{257, 256, 1, 1};
  wl::RecordingCanvas canvas;
  canvas.fill_rect(0, 0, 257, 256, rd::colors::kBlue);
  canvas.fill_rect(0, 200, 257, 56, rd::colors::kRed);
  canvas.fill_rect(1, 255, 3, 1, rd::colors::kGreen);
  canvas.fill_rect(100, 50, 20, 30, rd::colors::kWhite);
  const auto commands = canvas.take();
  const auto reference = wl::render_reference(commands, spec.total_width(),
                                              spec.total_height());
  const auto result = wl::render_wall_frame(commands, spec, 2);
  EXPECT_EQ(result.frame, reference);
}

// Property sweep: wall == reference across tile grids and node counts.
class WallEquivalencePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WallEquivalencePropertyTest, ExactComposite) {
  const auto [cols, rows, nodes] = GetParam();
  const wl::WallSpec spec{static_cast<std::size_t>(cols),
                          static_cast<std::size_t>(rows), 48, 36};
  const auto commands = random_scene(
      17 + static_cast<std::uint64_t>(cols * 100 + rows * 10 + nodes),
      static_cast<long>(spec.total_width()),
      static_cast<long>(spec.total_height()), 80);
  const auto reference = wl::render_reference(commands, spec.total_width(),
                                              spec.total_height());
  const auto result = wl::render_wall_frame(
      commands, spec, static_cast<std::size_t>(nodes));
  EXPECT_EQ(result.frame, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, WallEquivalencePropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 3),
                       ::testing::Values(0, 1, 2)));

// -- fault-tolerant mode (the chaos matrix proper lives in chaos_test.cpp) ---

TEST(WallFaultToleranceTest, HealthyDeadlineFrameStaysExactAndUndegraded) {
  const wl::WallSpec spec{3, 2, 48, 36};
  const auto commands = random_scene(19, static_cast<long>(spec.total_width()),
                                     static_cast<long>(spec.total_height()));
  const auto reference = wl::render_reference(commands, spec.total_width(),
                                              spec.total_height());
  wl::WallOptions options;
  options.node_count = 3;
  options.tile_deadline = std::chrono::milliseconds(2000);
  const auto result = wl::render_wall_frame(commands, spec, options);
  EXPECT_EQ(result.frame, reference);
  EXPECT_FALSE(result.stats.degraded);
  EXPECT_EQ(result.stats.retries, 0u);
  EXPECT_EQ(result.stats.reassigned_tiles, 0u);
  EXPECT_EQ(result.stats.master_rastered_tiles, 0u);

  // Stats ride with the pixels, so a healthy deadline frame is as exact as
  // one without a deadline: same protocol, same bytes, same counts.
  wl::WallOptions unbounded = options;
  unbounded.tile_deadline = std::chrono::milliseconds(0);
  const auto baseline = wl::render_wall_frame(commands, spec, unbounded);
  EXPECT_EQ(baseline.frame, result.frame);
  EXPECT_EQ(baseline.stats.commands_executed, result.stats.commands_executed);
  EXPECT_EQ(baseline.stats.bytes_distributed, result.stats.bytes_distributed);
}

TEST(WallFaultToleranceTest, CrashedNodeTilesAreRecovered) {
  const wl::WallSpec spec{3, 2, 48, 36};
  const auto commands = random_scene(23, static_cast<long>(spec.total_width()),
                                     static_cast<long>(spec.total_height()));
  const auto reference = wl::render_reference(commands, spec.total_width(),
                                              spec.total_height());
  wl::WallOptions options;
  options.node_count = 3;
  options.tile_deadline = std::chrono::milliseconds(150);
  options.faults.seed = 31;
  options.faults.crash_rank = 2;  // dies before rendering anything
  options.faults.crash_at_op = 1;
  const auto result = wl::render_wall_frame(commands, spec, options);
  EXPECT_EQ(result.frame, reference)
      << "degradation must never cost correctness";
  EXPECT_TRUE(result.stats.degraded);
  // The dead node's tiles were recovered somewhere: by a surviving node or
  // by the master itself.
  EXPECT_GT(result.stats.reassigned_tiles + result.stats.master_rastered_tiles,
            0u);
}

TEST(WallFaultToleranceTest, FaultsWithoutDeadlineAreRejected) {
  const wl::WallSpec spec{1, 1, 32, 32};
  wl::WallOptions options;
  options.faults.drop_rate = 0.5;  // but tile_deadline stays 0
  EXPECT_THROW(wl::render_wall_frame({}, spec, options), fv::InvalidArgument);

  options.faults = {};
  options.tile_deadline = std::chrono::milliseconds(100);
  options.faults.crash_rank = 0;  // the master must survive
  EXPECT_THROW(wl::render_wall_frame({}, spec, options), fv::InvalidArgument);
}

// -- the one-pass split, against a per-tile reference cull -----------------

/// Indices of the commands whose bounds overlap one of `tiles`, in stream
/// order: the cull split_work must reproduce, one tile rect at a time.
std::vector<std::size_t> reference_cull(const wl::CommandList& commands,
                                        const wl::WallSpec& spec,
                                        const std::vector<std::size_t>& tiles) {
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < commands.size(); ++i) {
    for (const std::size_t tile : tiles) {
      if (fv::layout::overlaps(commands[i].bounds(), spec.tile_rect(tile))) {
        kept.push_back(i);
        break;
      }
    }
  }
  return kept;
}

/// A scene whose commands start up to 60 px off every side of the canvas,
/// with text, spans drawn in either direction, images centred on tile
/// corners (the canvas corners included), and zero- and negative-size
/// commands that the recording canvas would have dropped.
wl::CommandList split_scene(std::uint64_t seed, const wl::WallSpec& spec) {
  fv::Rng rng(seed);
  const auto coordinate = [&](std::size_t extent) {
    return static_cast<long>(rng.uniform_u64(extent + 120)) - 60;
  };
  wl::RecordingCanvas canvas;
  for (int i = 0; i < 150; ++i) {
    const long x = coordinate(spec.total_width());
    const long y = coordinate(spec.total_height());
    const long w = 1 + static_cast<long>(rng.uniform_u64(90));
    const long h = 1 + static_cast<long>(rng.uniform_u64(70));
    const rd::Rgb8 color{static_cast<std::uint8_t>(rng.uniform_u64(256)),
                         static_cast<std::uint8_t>(i), 99};
    switch (rng.uniform_u64(5)) {
      case 0:
        canvas.fill_rect(x, y, w, h, color);
        break;
      case 1:
        canvas.text(x, y, "ORF" + std::to_string(i), color);
        break;
      case 2:
        canvas.hline(x, x + w - 45, y, color);
        canvas.vline(x + w - 45, y, y + h - 35, color);
        break;
      case 3: {
        const auto col = static_cast<long>(rng.uniform_u64(spec.tile_cols + 1));
        const auto row = static_cast<long>(rng.uniform_u64(spec.tile_rows + 1));
        std::vector<rd::Rgb8> pixels(static_cast<std::size_t>(w * h));
        for (std::size_t p = 0; p < pixels.size(); ++p) {
          pixels[p] = rd::Rgb8{static_cast<std::uint8_t>(p),
                               static_cast<std::uint8_t>(p >> 8),
                               static_cast<std::uint8_t>(i)};
        }
        canvas.image(col * static_cast<long>(spec.tile_width) - w / 2,
                     row * static_cast<long>(spec.tile_height) - h / 2, w, h,
                     rd::share_pixels(std::move(pixels)));
        break;
      }
      default:
        canvas.hline(x, x + w, y, color);
        canvas.vline(x, y, y + h, color);
        break;
    }
  }
  wl::CommandList commands = canvas.take();
  const auto at = [&] {
    return commands.begin() +
           static_cast<std::ptrdiff_t>(rng.uniform_u64(commands.size()));
  };
  commands.insert(at(), wl::RenderCommand{wl::CommandType::kFillRect, 10, 10,
                                          0, 5, rd::colors::kRed, {}, {}});
  commands.insert(at(), wl::RenderCommand{wl::CommandType::kFillRect, 5, 5,
                                          -3, 4, rd::colors::kRed, {}, {}});
  commands.insert(at(), wl::RenderCommand{wl::CommandType::kImage, 20, 20, 0,
                                          0, rd::colors::kRed, {}, {}});
  return commands;
}

/// Tiles of node d under the round-robin assignment.
std::vector<std::size_t> round_robin_tiles(std::size_t node,
                                           std::size_t nodes,
                                           std::size_t tile_count) {
  std::vector<std::size_t> tiles;
  for (std::size_t t = node; t < tile_count; t += nodes) tiles.push_back(t);
  return tiles;
}

/// Node count of the split; 0 = one node per tile.
class WorkSplitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkSplitTest, MatchesPerTileCullWithOnlyImagesCut) {
  const wl::WallSpec spec{4, 3, 40, 30};
  const std::size_t nodes = GetParam() == 0 ? spec.tile_count() : GetParam();
  std::size_t cut_images = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto commands = split_scene(seed + 40 * nodes, spec);
    std::vector<std::size_t> route(spec.tile_count());
    for (std::size_t t = 0; t < route.size(); ++t) route[t] = t % nodes;
    const auto splits = wl::split_work(commands, spec, route);
    ASSERT_EQ(splits.size(), nodes);
    for (std::size_t d = 0; d < nodes; ++d) {
      const wl::WorkSplit& split = splits[d];
      const auto tiles = round_robin_tiles(d, nodes, spec.tile_count());
      ASSERT_EQ(split.tiles, tiles);
      const auto expected = reference_cull(commands, spec, tiles);
      ASSERT_EQ(split.commands, expected) << "node " << d;

      const auto payload = wl::write_work(commands, split);
      EXPECT_EQ(payload.size(), split.payload_bytes);
      fv::mpx::PayloadReader reader(payload);
      const auto sent = wl::read_commands(reader);
      ASSERT_EQ(sent.size(), expected.size());
      EXPECT_EQ(reader.read<std::uint64_t>(), tiles.size());
      for (const std::size_t tile : tiles) {
        EXPECT_EQ(reader.read<std::uint64_t>(), tile);
      }
      EXPECT_EQ(reader.remaining(), 0u);

      // The same commands in the same order; an image may be cut to a
      // sub-rectangle of itself, and keeps its pixels there.
      wl::CommandList whole;
      for (std::size_t k = 0; k < sent.size(); ++k) {
        const wl::RenderCommand& original = commands[expected[k]];
        const wl::RenderCommand& got = sent[k];
        whole.push_back(original);
        EXPECT_EQ(got.type, original.type);
        EXPECT_EQ(got.color, original.color);
        EXPECT_EQ(got.text, original.text);
        if (original.type != wl::CommandType::kImage) {
          EXPECT_EQ(got.bounds(), original.bounds());
          EXPECT_EQ(got.x1, original.x1);
          EXPECT_EQ(got.y1, original.y1);
          continue;
        }
        const fv::layout::Rect from = original.bounds();
        const fv::layout::Rect kept = got.bounds();
        ASSERT_EQ(fv::layout::intersect(kept, from), kept);
        if (kept != from) ++cut_images;
        std::size_t mismatched = 0;
        for (long y = kept.y; y < kept.bottom(); ++y) {
          for (long x = kept.x; x < kept.right(); ++x) {
            mismatched += got.image.pixels[static_cast<std::size_t>(
                         (y - kept.y) * kept.width + (x - kept.x))] !=
                     original.image.pixels[static_cast<std::size_t>(
                         (y - from.y) * from.width + (x - from.x))];
          }
        }
        EXPECT_EQ(mismatched, 0u);
      }

      // Every tile of the node rasters the same pixels, and executes the
      // same commands, from the cut substream as from the uncut one.
      for (const std::size_t tile : tiles) {
        const fv::layout::Rect rect = spec.tile_rect(tile);
        rd::Framebuffer from_sent(spec.tile_width, spec.tile_height);
        rd::Framebuffer from_whole(spec.tile_width, spec.tile_height);
        EXPECT_EQ(wl::replay_commands(from_sent, sent, rect.x, rect.y),
                  wl::replay_commands(from_whole, whole, rect.x, rect.y));
        EXPECT_EQ(from_sent, from_whole) << "node " << d << " tile " << tile;
      }
    }
  }
  EXPECT_GT(cut_images, 0u);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, WorkSplitTest,
                         ::testing::Values(1, 2, 3, 5, 0));

/// Seeded mutation fuzzing of a node's work messages, which carry the
/// images the recorded frame above lacks: each mutated message decodes or
/// fails typed, every image it decodes to borrows pixels that lie inside
/// the message, and a message that decodes rasters its tiles.
TEST(CommandFuzzTest, MutatedWorkMessagesBorrowTheirImagesOrFailTyped) {
  const wl::WallSpec spec{4, 3, 40, 30};
  const auto commands = split_scene(31, spec);
  const auto splits = wl::split_work(commands, spec, {0, 0, 1, 1, 0, 0, 1, 1,
                                                      0, 0, 1, 1});
  fv::Rng rng(0x3a9e);
  std::size_t decoded = 0, rejected = 0, images = 0;
  for (const wl::WorkSplit& split : splits) {
    const std::vector<std::byte> work = wl::write_work(commands, split);
    for (int iteration = 0; iteration < 600; ++iteration) {
      const std::vector<std::byte> bytes =
          iteration == 0 ? work : mutated(work, rng);
      try {
        fv::mpx::PayloadReader reader(bytes);
        const wl::CommandList commands = wl::read_commands(reader);
        for (const auto& command : commands) {
          ASSERT_EQ(wl::why_invalid(command), nullptr);
          if (command.type != wl::CommandType::kImage) continue;
          ASSERT_TRUE(lies_inside(command.image.pixels, bytes));
          ASSERT_EQ(command.image.owner, nullptr);
          ++images;
        }
        reader.read_vector<std::uint64_t>();
        ++decoded;
        raster_checked(bytes, spec, commands.size());
      } catch (const fv::Error&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(images, 100u);
  EXPECT_GT(decoded, 2u);
  EXPECT_GT(rejected, 0u);
}

/// Seeded streams of every live command type with each coordinate and size
/// drawn from the edges of the long range: a stream decodes exactly when
/// every command in it keeps the rule in command.hpp, and one that decodes
/// rasters on every tile of a wall, so under the sanitizers no accepted
/// geometry overflows in culling or replay.
TEST(CommandFuzzTest, ExtremeGeometryDecodesIffValidAndRasters) {
  // The first five lie within kMaxCoordinate.
  constexpr std::int64_t kValues[] = {0,
                                      1,
                                      -1,
                                      std::int64_t{1} << 31,
                                      -(std::int64_t{1} << 31),
                                      std::int64_t{1} << 62,
                                      -(std::int64_t{1} << 62),
                                      std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max()};
  constexpr wl::CommandType kTypes[] = {
      wl::CommandType::kFillRect, wl::CommandType::kHLine,
      wl::CommandType::kVLine, wl::CommandType::kText,
      wl::CommandType::kImage};
  const wl::WallSpec wall{3, 2, 40, 30};
  std::vector<std::uint64_t> all_tiles(wall.tile_count());
  std::iota(all_tiles.begin(), all_tiles.end(), 0);
  const auto within_cap = [](std::int64_t v) {
    return v >= -wl::kMaxCoordinate && v <= wl::kMaxCoordinate;
  };
  fv::Rng rng(0xe7e);
  std::size_t accepted = 0, rejected = 0;
  std::size_t seen[7] = {};
  for (int iteration = 0; iteration < 1000; ++iteration) {
    fv::mpx::PayloadWriter writer;
    const std::uint64_t count = 1 + rng.uniform_u64(3);
    writer.write<std::uint64_t>(count);
    bool valid = true;
    for (std::uint64_t k = 0; k < count; ++k) {
      const wl::CommandType type = kTypes[rng.uniform_u64(std::size(kTypes))];
      // Half the commands keep within the cap, so that the other parts of
      // the rule decide whether they decode.
      const std::size_t values =
          rng.uniform_u64(2) == 0 ? 5 : std::size(kValues);
      std::int64_t g[4];
      for (std::int64_t& v : g) v = kValues[rng.uniform_u64(values)];
      // Spans mostly keep their shape, so their extremes get past it.
      if (type == wl::CommandType::kHLine && rng.uniform_u64(4) != 0) {
        g[3] = g[1];
      }
      if (type == wl::CommandType::kVLine && rng.uniform_u64(4) != 0) {
        g[2] = g[0];
      }
      // An image holds 0..2 pixels, which matches only its small sizes.
      const std::uint64_t pixel_count = rng.uniform_u64(3);
      valid = valid && std::ranges::all_of(g, within_cap) &&
              (type != wl::CommandType::kHLine || g[3] == g[1]) &&
              (type != wl::CommandType::kVLine || g[2] == g[0]) &&
              (type != wl::CommandType::kImage ||
               rd::image_size_matches(g[2], g[3], pixel_count));
      writer.write<std::uint8_t>(static_cast<std::uint8_t>(type));
      for (const std::int64_t v : g) writer.write<std::int64_t>(v);
      for (const std::uint64_t c : {std::uint64_t{200}, k, std::uint64_t{9}}) {
        writer.write<std::uint8_t>(static_cast<std::uint8_t>(c));
      }
      writer.write_string(type == wl::CommandType::kText ? "ORF7" : "");
      if (type == wl::CommandType::kImage) {
        const std::vector<rd::Rgb8> pixels(pixel_count, rd::colors::kRed);
        writer.write_span(std::span<const rd::Rgb8>(pixels));
      }
      ++seen[static_cast<std::size_t>(type)];
    }
    writer.write_span(std::span<const std::uint64_t>(all_tiles));
    const std::vector<std::byte> work = writer.take();
    fv::mpx::PayloadReader reader(work);
    try {
      const std::size_t commands = wl::read_commands(reader).size();
      ASSERT_TRUE(valid) << "iteration " << iteration;
      raster_checked(work, wall, commands);
      ++accepted;
    } catch (const fv::ParseError&) {
      ASSERT_FALSE(valid) << "iteration " << iteration;
      ++rejected;
    }
  }
  for (const wl::CommandType type : kTypes) {
    EXPECT_GT(seen[static_cast<std::size_t>(type)], 50u);
  }
  EXPECT_GT(accepted, 20u);
  EXPECT_GT(rejected, 20u);
}

// A node rasters each tile of its work message straight into the pixel
// reply it sends. Each reply decodes to the tile's id, the commands that
// touched the tile and the pixels, exactly as rastering the whole recorded
// stream into a Framebuffer at that tile gives them, in the order the
// message names the tiles.
TEST(WallNodeTest, PixelRepliesMatchFramebufferRasters) {
  const wl::WallSpec spec{4, 3, 40, 30};
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{5},
                                  spec.tile_count()}) {
    const auto commands = split_scene(700 + nodes, spec);
    std::vector<std::size_t> route(spec.tile_count());
    for (std::size_t t = 0; t < route.size(); ++t) route[t] = t % nodes;
    for (const wl::WorkSplit& split : wl::split_work(commands, spec, route)) {
      std::vector<std::vector<std::byte>> replies;
      wl::raster_work(wl::write_work(commands, split), spec,
                      [&](std::vector<std::byte> reply) {
                        replies.push_back(std::move(reply));
                      });
      ASSERT_EQ(replies.size(), split.tiles.size());
      for (std::size_t k = 0; k < replies.size(); ++k) {
        const std::size_t tile = split.tiles[k];
        const fv::layout::Rect rect = spec.tile_rect(tile);
        rd::Framebuffer want(spec.tile_width, spec.tile_height);
        const std::size_t executed =
            wl::replay_commands(want, commands, rect.x, rect.y);
        fv::mpx::PayloadReader reader(replies[k]);
        EXPECT_EQ(reader.read<std::uint64_t>(), tile);
        EXPECT_EQ(reader.read<std::uint64_t>(), executed);
        EXPECT_GE(reader.read<double>(), 0.0);
        const auto pixels = reader.read_span<rd::Rgb8>();
        EXPECT_EQ(reader.remaining(), 0u);
        EXPECT_TRUE(std::ranges::equal(pixels, want.pixels()))
            << nodes << " nodes, tile " << tile;
      }
    }
  }
  // A reply names only tiles of the wall.
  fv::mpx::PayloadWriter bad;
  bad.write<std::uint64_t>(0);
  bad.write_span(std::span<const std::uint64_t>(
      std::vector<std::uint64_t>{spec.tile_count()}));
  EXPECT_THROW(wl::raster_work(bad.take(), spec, [](std::vector<std::byte>) {}),
               fv::InvalidArgument);
}

TEST(WorkSplitRouteTest, UnroutedTilesGetNothing) {
  const wl::WallSpec spec{3, 1, 10, 10};
  wl::RecordingCanvas canvas;
  canvas.fill_rect(0, 0, 30, 10, rd::colors::kRed);  // every tile
  canvas.fill_rect(2, 2, 3, 3, rd::colors::kGreen);  // tile 0 only
  const auto commands = canvas.take();
  const auto splits =
      wl::split_work(commands, spec, {wl::kNoDestination, 1, wl::kNoDestination});
  ASSERT_EQ(splits.size(), 2u);
  EXPECT_TRUE(splits[0].tiles.empty());
  EXPECT_TRUE(splits[0].commands.empty());
  EXPECT_EQ(splits[1].tiles, (std::vector<std::size_t>{1}));
  EXPECT_EQ(splits[1].commands, (std::vector<std::size_t>{0}));
  EXPECT_EQ(splits[1].crop, spec.tile_rect(1));
  EXPECT_THROW(wl::split_work(commands, spec, {0, 0}), fv::InvalidArgument);
}

}  // namespace
