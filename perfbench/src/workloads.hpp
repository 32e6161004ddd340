// The three workloads. Each sets up, measures for Args::seconds, checks
// its outputs outside the timed phase, and fills the Report: end-to-end
// metrics always, per-layer metrics when Args::trace is set.
#pragma once

#include "bench.hpp"

namespace pb {

/// 4 closed-loop clients submitting cold and repeated analysis jobs over
/// HTTP to a fresh service with an empty store.
void run_serve_mixed(const Args& args, Report& report);

/// 4 closed-loop clients on a primed result cache: no compute, only the
/// http, json and service layers, with session writes among the reads.
void run_serve_hot(const Args& args, Report& report);

/// One analyst's seeded action sequence on the fig6 compendium, each action
/// followed by a desktop frame and every Nth by a display-wall frame.
void run_session_frames(const Args& args, Report& report);

/// Fills trace.unattributed_frac and writes the span file (traced runs).
void finish_trace(const Args& args, Report& report);

}  // namespace pb
