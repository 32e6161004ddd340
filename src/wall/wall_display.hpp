// The scalable display wall (paper Figure 3, simulated in-process): an
// R x C grid of projector tiles, each owned by one cluster node. The master
// rank ships each node over mpx only the commands that overlap its tiles,
// every node rasterizes its tiles, and the compositor gathers the tiles
// back into one frame for inspection (on the physical wall the gather is
// replaced by photons; everything before it is the same pipeline).
#pragma once

#include <chrono>
#include <functional>
#include <span>
#include <vector>

#include "layout/geometry.hpp"
#include "mpx/fault.hpp"
#include "render/framebuffer.hpp"
#include "wall/command.hpp"

namespace fv::wall {

struct WallSpec {
  std::size_t tile_cols = 4;
  std::size_t tile_rows = 3;
  std::size_t tile_width = 1024;   ///< pixels per projector, paper-era XGA
  std::size_t tile_height = 768;

  std::size_t tile_count() const noexcept { return tile_cols * tile_rows; }
  std::size_t total_width() const noexcept { return tile_cols * tile_width; }
  std::size_t total_height() const noexcept {
    return tile_rows * tile_height;
  }
  std::size_t total_pixels() const noexcept {
    return total_width() * total_height();
  }

  /// Canvas-space rectangle of tile `index` (row-major).
  layout::Rect tile_rect(std::size_t index) const;

  /// The Princeton wall configuration referenced by the paper's display
  /// wall project: 24 projectors in a 6x4 grid.
  static WallSpec princeton_wall() { return WallSpec{6, 4, 1024, 768}; }
  /// A paper-era 2-Mpixel desktop monitor as a 1x1 "wall".
  static WallSpec desktop() { return WallSpec{1, 1, 1600, 1200}; }
};

/// Knobs for one wall frame, including the fault-tolerance ladder.
///
/// Every frame runs one protocol (see src/wall/README.md): the master sends
/// each node a work message carrying the commands its tiles need and the
/// tile ids, nodes answer with one pixel message per tile, and the master
/// composites. tile_deadline only bounds the waits. With tile_deadline == 0
/// (the default) every wait is unbounded, so the frame simply blocks until
/// all tiles arrive. With tile_deadline > 0 the master walks the degradation
/// ladder when tiles are missing: wait one deadline window for tile results,
/// then resend the missing tiles' command substreams to their owner nodes
/// (one bounded retry after a 5 ms backoff), then reassign still-missing
/// tiles to nodes that have proven alive, and finally rasterize whatever
/// remains master-side. Every rung re-renders the same deterministic
/// commands, so a degraded frame stays pixel-identical to render_reference.
/// Each node exits on its own once the master has been silent for a
/// watchdog span derived from tile_deadline, so a lost shutdown message
/// cannot hang the frame.
struct WallOptions {
  /// Cluster nodes (mpx ranks beyond the master); 0 = one per tile.
  std::size_t node_count = 0;
  /// Master-side wait per ladder rung; 0 = unbounded waits (no recovery).
  std::chrono::milliseconds tile_deadline{0};
  /// Deterministic fault injection for this frame's mpx group. Requires
  /// tile_deadline > 0 when any fault is enabled; crash_rank 0 (the master)
  /// is rejected. The wall's shutdown control tag is auto-exempted.
  mpx::FaultSpec faults;
};

struct FrameStats {
  double total_seconds = 0.0;          ///< wall-clock for the whole frame
  /// Largest per-source sum of tile raster time over composited tiles
  /// (raster only: command decode, pixel packing and sends are excluded).
  /// Each tile's time is the rastering thread's CPU time, so it measures
  /// the raster work, not how many node threads shared the cores.
  double max_node_render_seconds = 0.0;
  std::size_t commands_total = 0;      ///< commands in the stream
  std::size_t commands_executed = 0;   ///< sum over composited tiles
  std::size_t bytes_distributed = 0;   ///< payload bytes shipped to nodes
  std::size_t pixels = 0;              ///< pixels in the assembled frame

  // Degradation accounting (all zero on a frame without a deadline and on
  // a healthy deadline-mode frame).
  std::size_t retries = 0;             ///< tiles resent to their owner node
  std::size_t reassigned_tiles = 0;    ///< tiles moved to a surviving node
  std::size_t master_rastered_tiles = 0;  ///< tiles rendered by the master
  std::size_t corrupt_messages = 0;    ///< messages discarded by checksum
  /// True when any recovery rung fired. The frame is still pixel-identical
  /// to render_reference — degradation costs time, never correctness.
  bool degraded = false;
};

struct FrameResult {
  render::Framebuffer frame;  ///< composited full-wall image
  FrameStats stats;
};

/// Renders one frame on the simulated wall. `node_count` cluster nodes are
/// spawned as mpx ranks plus one master rank; tiles are assigned to nodes
/// round-robin. node_count defaults to one node per tile (the paper's
/// one-PC-per-projector layout).
FrameResult render_wall_frame(const CommandList& commands,
                              const WallSpec& spec,
                              std::size_t node_count = 0);

/// Full-options variant: deadlines, bounded retries, reassignment, and
/// master-side fallback raster (plus deterministic fault injection for
/// tests). Both overloads run the same protocol; the no-deadline default
/// only makes every wait unbounded.
FrameResult render_wall_frame(const CommandList& commands,
                              const WallSpec& spec,
                              const WallOptions& options);

/// Marks a tile that a split sends nowhere.
inline constexpr std::size_t kNoDestination = static_cast<std::size_t>(-1);

/// One destination's share of a command stream (its work message).
struct WorkSplit {
  std::vector<std::size_t> tiles;     ///< ascending tile ids
  layout::Rect crop;                  ///< bounding box of `tiles`
  std::vector<std::size_t> commands;  ///< stream indices, ascending
  std::size_t payload_bytes = 0;      ///< exact size of write_work's bytes
};

/// Splits `commands` among destinations in one pass over the stream:
/// destination d gets every command whose bounds overlap one of the tiles
/// with destination_of_tile[tile] == d (kNoDestination: none), in stream
/// order. Entry d of the result is destination d's share; there are as many
/// as the largest destination named, plus one.
std::vector<WorkSplit> split_work(
    const CommandList& commands, const WallSpec& spec,
    const std::vector<std::size_t>& destination_of_tile);

/// The work message of `split`: `split.commands` as write_commands lays
/// them out, each image cut to `split.crop`, then a u64 tile count and the
/// u64 tile ids.
std::vector<std::byte> write_work(const CommandList& commands,
                                  const WorkSplit& split);

/// A node's share of a frame: decodes `work` (a write_work message) and
/// rasters each tile it names, in order, straight into a new pixel reply
/// [u64 tile][u64 executed][f64 seconds][u64 count][pixels] that it hands
/// to `reply`. The pixels start black; executed counts the commands that
/// touched the tile, seconds is the raster's CPU time. The decoded images
/// borrow `work`'s bytes, which must stay valid for the call. A damaged
/// message fails typed, as read_commands does.
void raster_work(std::span<const std::byte> work, const WallSpec& spec,
                 const std::function<void(std::vector<std::byte>)>& reply);

/// Single-pass reference rendering of the same command stream (desktop
/// path); wall output must match it pixel for pixel.
render::Framebuffer render_reference(const CommandList& commands,
                                     std::size_t width, std::size_t height);

}  // namespace fv::wall
