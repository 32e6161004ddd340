// Chaos matrix for the fault-tolerant display wall: seeded fault scenarios
// sweeping drop / delay / duplicate / corrupt / crash, every one of which
// must end in one of exactly two ways within bounded time — a frame
// pixel-identical to the single-pass reference, or a typed fv::Error. Never
// a deadlock, never a silently wrong frame. Seeds make every scenario
// replayable: a failure here reproduces with the same seed, every run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "render/canvas.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wall/command.hpp"
#include "wall/wall_display.hpp"

namespace {

namespace wl = fv::wall;
namespace rd = fv::render;

using Clock = std::chrono::steady_clock;

/// Deterministic scene exercising every primitive, images included (small:
/// chaos scenarios re-render tiles several times on a single-core CI box).
wl::CommandList chaos_scene(std::uint64_t seed, long width, long height) {
  fv::Rng rng(seed);
  wl::RecordingCanvas canvas;
  for (std::size_t i = 0; i < 60; ++i) {
    const long x =
        static_cast<long>(rng.uniform_u64(static_cast<std::uint64_t>(width)));
    const long y =
        static_cast<long>(rng.uniform_u64(static_cast<std::uint64_t>(height)));
    const long w = 1 + static_cast<long>(rng.uniform_u64(60));
    const long h = 1 + static_cast<long>(rng.uniform_u64(40));
    const rd::Rgb8 color{static_cast<std::uint8_t>(rng.uniform_u64(256)),
                         static_cast<std::uint8_t>(rng.uniform_u64(256)),
                         static_cast<std::uint8_t>(rng.uniform_u64(256))};
    switch (rng.uniform_u64(5)) {
      case 0:
        canvas.fill_rect(x, y, w, h, color);
        break;
      case 1:  // an outline
        canvas.hline(x, x + w - 1, y, color);
        canvas.hline(x, x + w - 1, y + h - 1, color);
        canvas.vline(x, y, y + h - 1, color);
        canvas.vline(x + w - 1, y, y + h - 1, color);
        break;
      case 2:  // a corner, drawn from its far ends
        canvas.hline(x + w, x, y, color);
        canvas.vline(x + w, y + h, y, color);
        break;
      case 3: {
        // Off-canvas at negative coordinates and across tile seams.
        std::vector<rd::Rgb8> pixels(static_cast<std::size_t>(w * h), color);
        for (std::size_t p = 0; p < pixels.size(); p += 7) {
          pixels[p] = rd::Rgb8{static_cast<std::uint8_t>(p), color.g, 0};
        }
        canvas.image(x - 30, y - 20, w, h, rd::share_pixels(std::move(pixels)));
        break;
      }
      default:
        canvas.text(x, y, "G" + std::to_string(i), color);
        break;
    }
  }
  return canvas.take();
}

struct ChaosScenario {
  const char* name;
  std::uint64_t seed = 0;
  double drop = 0.0;
  double delay = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  int crash_rank = -1;
  std::uint64_t crash_at_op = 1;
  /// 1 = the frame must be degraded, 0 = must not be, -1 = either is fine
  /// (probabilistic faults may or may not hit a tile-critical message).
  int expect_degraded = -1;
};

class WallChaosTest : public ::testing::TestWithParam<ChaosScenario> {};

TEST_P(WallChaosTest, FrameCompletesPixelIdenticalInBoundedTime) {
  const ChaosScenario& scenario = GetParam();

  const wl::WallSpec spec{3, 2, 48, 36};
  const auto commands =
      chaos_scene(100 + scenario.seed, static_cast<long>(spec.total_width()),
                  static_cast<long>(spec.total_height()));
  const auto reference =
      wl::render_reference(commands, spec.total_width(), spec.total_height());

  wl::WallOptions options;
  options.node_count = 3;
  // Generous windows: CI may be single-core, and a flaky deadline would
  // make the determinism claim hollow. Correctness never depends on these
  // values — only elapsed time does.
  options.tile_deadline = std::chrono::milliseconds(150);
  options.faults.seed = scenario.seed;
  options.faults.drop_rate = scenario.drop;
  options.faults.delay_rate = scenario.delay;
  options.faults.duplicate_rate = scenario.duplicate;
  options.faults.corrupt_rate = scenario.corrupt;
  options.faults.delay = std::chrono::milliseconds(10);
  options.faults.crash_rank = scenario.crash_rank;
  options.faults.crash_at_op = scenario.crash_at_op;

  const auto start = Clock::now();
  const auto result = wl::render_wall_frame(commands, spec, options);
  const auto elapsed = Clock::now() - start;

  // The two invariants every scenario must keep: the frame is exactly the
  // reference (degradation costs time, never pixels), and the whole ladder
  // — including node watchdogs — finishes in bounded time.
  EXPECT_EQ(result.frame, reference) << "scenario " << scenario.name;
  EXPECT_LT(elapsed, std::chrono::seconds(30))
      << "scenario " << scenario.name << " exceeded its time bound";

  if (scenario.expect_degraded == 1) {
    EXPECT_TRUE(result.stats.degraded) << "scenario " << scenario.name;
  } else if (scenario.expect_degraded == 0) {
    EXPECT_FALSE(result.stats.degraded) << "scenario " << scenario.name;
    EXPECT_EQ(result.stats.retries, 0u);
    EXPECT_EQ(result.stats.reassigned_tiles, 0u);
    EXPECT_EQ(result.stats.master_rastered_tiles, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, WallChaosTest,
    ::testing::Values(
        // Healthy deadline-mode frame: the fault hooks are live but silent.
        ChaosScenario{"healthy", 1, 0, 0, 0, 0, -1, 1, 0},
        // Light packet loss, three seeds.
        ChaosScenario{"drop_light_a", 2, 0.15},
        ChaosScenario{"drop_light_b", 3, 0.15},
        ChaosScenario{"drop_light_c", 4, 0.15},
        // Heavy packet loss, two seeds.
        ChaosScenario{"drop_heavy_a", 5, 0.45},
        ChaosScenario{"drop_heavy_b", 6, 0.45},
        // Total data loss: every tile must fall through to the master.
        ChaosScenario{"drop_total", 7, 1.0, 0, 0, 0, -1, 1, 1},
        // Delays (sender-side sleeps; FIFO preserved).
        ChaosScenario{"delay_a", 8, 0, 0.5},
        ChaosScenario{"delay_b", 9, 0, 0.5},
        // Duplicates (mailbox suppression must keep composition single-shot).
        ChaosScenario{"duplicate_a", 10, 0, 0, 0.5},
        ChaosScenario{"duplicate_b", 11, 0, 0, 0.5},
        // Corruption (checksum must catch every flipped byte).
        ChaosScenario{"corrupt_a", 12, 0, 0, 0, 0.35},
        ChaosScenario{"corrupt_b", 13, 0, 0, 0, 0.35},
        // Node crashes before doing any work: its tiles must be recovered.
        ChaosScenario{"crash_node1_at_start", 14, 0, 0, 0, 0, 1, 1, 1},
        ChaosScenario{"crash_node2_at_start", 15, 0, 0, 0, 0, 2, 1, 1},
        ChaosScenario{"crash_node3_at_start", 16, 0, 0, 0, 0, 3, 1, 1},
        // Node crashes mid-frame (after some sends): partial work kept.
        ChaosScenario{"crash_node1_midframe", 17, 0, 0, 0, 0, 1, 4},
        ChaosScenario{"crash_node2_midframe", 18, 0, 0, 0, 0, 2, 3},
        // Everything at once.
        ChaosScenario{"mixed_a", 19, 0.15, 0.15, 0.15, 0.15},
        ChaosScenario{"mixed_b", 20, 0.15, 0.15, 0.15, 0.15},
        ChaosScenario{"mixed_heavy", 21, 0.3, 0, 0, 0.3},
        // Crash plus noise: loss and corruption while recovering.
        ChaosScenario{"crash_plus_drop", 22, 0.2, 0, 0, 0, 2, 1, 1},
        ChaosScenario{"crash_plus_corrupt", 23, 0, 0, 0, 0.2, 3, 1, 1}),
    [](const ::testing::TestParamInfo<ChaosScenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
