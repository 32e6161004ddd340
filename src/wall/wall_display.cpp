#include "wall/wall_display.hpp"

#include <algorithm>
#include <thread>

#include "mpx/communicator.hpp"
#include "render/draw.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace fv::wall {

layout::Rect WallSpec::tile_rect(std::size_t index) const {
  FV_REQUIRE(index < tile_count(), "tile index out of range");
  const std::size_t col = index % tile_cols;
  const std::size_t row = index / tile_cols;
  return layout::Rect{static_cast<long>(col * tile_width),
                      static_cast<long>(row * tile_height),
                      static_cast<long>(tile_width),
                      static_cast<long>(tile_height)};
}

namespace {

using Clock = mpx::Comm::Clock;

// Wire tags. A work message names explicit tiles, so the master can re-send
// or re-assign any subset; shutdown is control traffic and is auto-exempted
// from fault injection so termination stays bounded even under 100% message
// loss on data tags.
constexpr int kTagPixels = 2;
constexpr int kTagWork = 4;
constexpr int kTagShutdown = 5;

/// Commands needed by any tile of `tiles`, in stream order (the "command
/// substream" every work message ships).
CommandList cull_for_tiles(const CommandList& commands, const WallSpec& spec,
                           const std::vector<std::size_t>& tiles) {
  std::vector<layout::Rect> rects;
  rects.reserve(tiles.size());
  for (const std::size_t tile : tiles) rects.push_back(spec.tile_rect(tile));
  CommandList kept;
  for (const RenderCommand& command : commands) {
    const layout::Rect bounds = command.bounds();
    for (const layout::Rect& rect : rects) {
      if (layout::overlaps(bounds, rect)) {
        kept.push_back(command);
        break;
      }
    }
  }
  return kept;
}

/// Tiles handled by a node (round-robin assignment, master excluded).
std::vector<std::size_t> tiles_of_node(std::size_t node,
                                       std::size_t node_count,
                                       std::size_t tile_count) {
  std::vector<std::size_t> tiles;
  for (std::size_t t = node; t < tile_count; t += node_count) {
    tiles.push_back(t);
  }
  return tiles;
}

struct TileRaster {
  render::Framebuffer pixels;
  std::uint64_t executed = 0;  ///< commands that touched the tile
  double seconds = 0.0;        ///< raster time
};

/// Rasterizes one tile of the command stream (deterministic — this is what
/// makes every recovery rung pixel-identical: any node, or the master, can
/// re-render any tile and produce the same bytes).
TileRaster raster_tile(const CommandList& commands, const layout::Rect& rect) {
  Timer timer;
  TileRaster raster;
  raster.pixels = render::Framebuffer(static_cast<std::size_t>(rect.width),
                                      static_cast<std::size_t>(rect.height));
  raster.executed = replay_commands(raster.pixels, commands, rect.x, rect.y);
  raster.seconds = timer.seconds();
  return raster;
}

/// `span` from now, or no deadline at all when the frame has none
/// (tile_deadline == 0: nothing can be lost, so nothing is waited out).
std::optional<Clock::time_point> deadline_after(const WallOptions& options,
                                                Clock::duration span) {
  if (options.tile_deadline.count() == 0) return std::nullopt;
  return Clock::now() + span;
}

/// Next message from `source` with `tag`: a blocking receive without a
/// deadline, otherwise nullopt once `until` passes.
std::optional<mpx::Message> receive(mpx::Comm& comm,
                                    std::optional<Clock::time_point> until,
                                    int source, int tag) {
  if (!until.has_value()) return comm.recv(source, tag);
  return comm.try_recv_until(*until, source, tag);
}

void run_master(mpx::Comm& comm, const CommandList& commands,
                const WallSpec& spec, const WallOptions& options,
                std::size_t node_count, FrameResult& result) {
  const std::size_t tile_count = spec.tile_count();
  const int ranks = static_cast<int>(node_count) + 1;

  // Work message: [commands the tiles overlap][tile ids]. The first send,
  // the retry and the reassignment all ship this shape.
  const auto send_work = [&](int node, const std::vector<std::size_t>& tiles) {
    mpx::PayloadWriter writer;
    write_commands(writer, cull_for_tiles(commands, spec, tiles));
    writer.write<std::uint64_t>(tiles.size());
    for (const std::size_t tile : tiles) {
      writer.write<std::uint64_t>(static_cast<std::uint64_t>(tile));
    }
    std::vector<std::byte> payload = writer.take();
    result.stats.bytes_distributed += payload.size();
    comm.send(node, kTagWork, std::move(payload));
  };

  for (int node = 1; node < ranks; ++node) {
    send_work(node, tiles_of_node(static_cast<std::size_t>(node - 1),
                                  node_count, tile_count));
  }

  std::vector<char> done(tile_count, 0);
  std::vector<char> alive(static_cast<std::size_t>(ranks), 0);
  std::vector<double> raster_seconds(static_cast<std::size_t>(ranks), 0.0);
  std::size_t remaining = tile_count;

  // Stats count composited tiles only, so they are exact on every frame.
  const auto mark_done = [&](std::size_t tile, int source,
                             std::uint64_t executed, double seconds) {
    done[tile] = 1;
    --remaining;
    result.stats.commands_executed += static_cast<std::size_t>(executed);
    raster_seconds[static_cast<std::size_t>(source)] += seconds;
  };

  // Drains pixel messages until every tile landed or the window closes
  // (without a deadline the first call drains them all, so no later rung
  // fires). Corrupt messages are dropped (their tiles stay pending — the
  // ladder recovers them); duplicates are suppressed by the mailbox and late
  // re-renders of an already-composited tile are ignored here.
  const auto collect = [&](std::optional<Clock::time_point> until) {
    while (remaining > 0) {
      std::optional<mpx::Message> message;
      try {
        message = receive(comm, until, mpx::kAnySource, kTagPixels);
      } catch (const CorruptMessageError&) {
        ++result.stats.corrupt_messages;
        continue;
      }
      if (!message.has_value()) return;
      alive[static_cast<std::size_t>(message->source)] = 1;
      // Pixel message: [tile, executed, raster seconds, pixels].
      mpx::PayloadReader reader(message->payload);
      const auto tile = static_cast<std::size_t>(reader.read<std::uint64_t>());
      const auto executed = reader.read<std::uint64_t>();
      const auto seconds = reader.read<double>();
      const auto pixels = reader.read_vector<render::Rgb8>();
      FV_ASSERT(tile < tile_count, "tile index out of range");
      if (done[tile]) continue;
      const layout::Rect rect = spec.tile_rect(tile);
      render::draw_image(result.frame, rect.x, rect.y, rect.width,
                         rect.height, pixels);
      mark_done(tile, message->source, executed, seconds);
    }
  };

  const auto pending_tiles = [&] {
    std::vector<std::size_t> pending;
    for (std::size_t t = 0; t < tile_count; ++t) {
      if (!done[t]) pending.push_back(t);
    }
    return pending;
  };

  // Rung 1: the healthy window.
  collect(deadline_after(options, options.tile_deadline));

  // Rung 2: one bounded retry — resend each missing tile's command
  // substream to its owner node after a backoff (a slow node gets a second
  // chance; a dead one will miss this window too).
  if (remaining > 0) {
    result.stats.degraded = true;
    result.stats.retries += remaining;
    std::this_thread::sleep_for(options.retry_backoff);
    std::vector<std::vector<std::size_t>> by_owner(
        static_cast<std::size_t>(ranks));
    for (const std::size_t tile : pending_tiles()) {
      by_owner[1 + tile % node_count].push_back(tile);
    }
    for (int node = 1; node < ranks; ++node) {
      const auto& tiles = by_owner[static_cast<std::size_t>(node)];
      if (!tiles.empty()) send_work(node, tiles);
    }
    collect(deadline_after(options, options.tile_deadline));
  }

  // Rung 3: reassign orphaned tiles to nodes that have proven alive (they
  // delivered at least one pixel message this frame).
  if (remaining > 0) {
    std::vector<int> survivors;
    for (int node = 1; node < ranks; ++node) {
      if (alive[static_cast<std::size_t>(node)]) survivors.push_back(node);
    }
    if (!survivors.empty()) {
      result.stats.degraded = true;
      result.stats.reassigned_tiles += remaining;
      std::vector<std::vector<std::size_t>> by_survivor(survivors.size());
      std::size_t next = 0;
      for (const std::size_t tile : pending_tiles()) {
        by_survivor[next++ % survivors.size()].push_back(tile);
      }
      for (std::size_t s = 0; s < survivors.size(); ++s) {
        if (!by_survivor[s].empty()) {
          send_work(survivors[s], by_survivor[s]);
        }
      }
      collect(deadline_after(options, options.tile_deadline));
    }
  }

  // Rung 4: the master rasters whatever is still missing itself. Tile
  // rasterization is deterministic, so this is pixel-identical to what the
  // lost node would have produced — the frame completes, always.
  if (remaining > 0) {
    result.stats.degraded = true;
    for (const std::size_t tile : pending_tiles()) {
      const layout::Rect rect = spec.tile_rect(tile);
      const TileRaster raster =
          raster_tile(cull_for_tiles(commands, spec, {tile}), rect);
      result.frame.blit(raster.pixels, rect.x, rect.y);
      mark_done(tile, comm.rank(), raster.executed, raster.seconds);
      ++result.stats.master_rastered_tiles;
    }
  }

  result.stats.max_node_render_seconds =
      *std::max_element(raster_seconds.begin(), raster_seconds.end());

  // Orderly shutdown (the control tag is fault-exempt, so this always
  // arrives; the node-side watchdog is only a backstop for a dead master).
  for (int node = 1; node < ranks; ++node) {
    comm.send(node, kTagShutdown, {});
  }
}

void run_node(mpx::Comm& comm, const WallSpec& spec,
              const WallOptions& options) {
  // Idle watchdog: if the master goes silent this long, assume the frame is
  // over (e.g. the shutdown message itself was lost to fault injection) and
  // exit — a node can never hang the group. Derived generously from the
  // master's ladder span: 4 windows + backoff + slack. Without a deadline
  // the node waits for shutdown unbounded, like the master waits for tiles.
  const auto watchdog =
      options.node_watchdog.count() > 0
          ? options.node_watchdog
          : options.tile_deadline * 8 + options.retry_backoff * 4 +
                std::chrono::milliseconds(250);
  for (;;) {
    std::optional<mpx::Message> message;
    try {
      message =
          receive(comm, deadline_after(options, watchdog), 0, mpx::kAnyTag);
    } catch (const CorruptMessageError&) {
      continue;  // a corrupt request is recovered by the master's ladder
    }
    if (!message.has_value() || message->tag == kTagShutdown) break;
    if (message->tag != kTagWork) continue;

    mpx::PayloadReader reader(message->payload);
    const CommandList node_commands = read_commands(reader);
    const auto tile_ids = reader.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < tile_ids; ++i) {
      const auto tile = reader.read<std::uint64_t>();
      const TileRaster raster = raster_tile(
          node_commands, spec.tile_rect(static_cast<std::size_t>(tile)));
      mpx::PayloadWriter writer;
      writer.write<std::uint64_t>(tile);
      writer.write<std::uint64_t>(raster.executed);
      writer.write<double>(raster.seconds);
      writer.write_span(std::span<const render::Rgb8>(raster.pixels.pixels()));
      comm.send(0, kTagPixels, writer.take());
    }
  }
}

}  // namespace

render::Framebuffer render_reference(const CommandList& commands,
                                     std::size_t width, std::size_t height) {
  render::Framebuffer fb(width, height);
  replay_commands(fb, commands, 0, 0);
  return fb;
}

FrameResult render_wall_frame(const CommandList& commands,
                              const WallSpec& spec, std::size_t node_count) {
  WallOptions options;
  options.node_count = node_count;
  return render_wall_frame(commands, spec, options);
}

FrameResult render_wall_frame(const CommandList& commands,
                              const WallSpec& spec,
                              const WallOptions& options) {
  FV_REQUIRE(spec.tile_count() >= 1, "wall needs at least one tile");
  std::size_t node_count = options.node_count;
  if (node_count == 0) node_count = spec.tile_count();
  node_count = std::min(node_count, spec.tile_count());

  FV_REQUIRE(!options.faults.any() || options.tile_deadline.count() > 0,
             "fault injection requires a tile deadline: without one every "
             "wait is unbounded and a lost message would hang the frame");
  FV_REQUIRE(options.faults.crash_rank != 0,
             "rank 0 is the wall master and must survive the frame");

  FrameResult result;
  result.frame =
      render::Framebuffer(spec.total_width(), spec.total_height());
  result.stats.commands_total = commands.size();
  result.stats.pixels = spec.total_pixels();

  Timer frame_timer;
  // Rank 0 = master (holds the command stream, composites); ranks 1..N are
  // the per-tile cluster nodes.
  mpx::FaultSpec faults = options.faults;
  faults.exempt_tags.push_back(kTagShutdown);
  mpx::run_group(
      static_cast<int>(node_count) + 1,
      [&](mpx::Comm& comm) {
        if (comm.rank() == 0) {
          run_master(comm, commands, spec, options, node_count, result);
        } else {
          run_node(comm, spec, options);
        }
      },
      faults);
  result.stats.total_seconds = frame_timer.seconds();
  return result;
}

}  // namespace fv::wall
