// Shared declarations of the end-to-end benchmark (gkr_perf.cpp) and
// its per-layer probes (layer_probes.cpp). See README.md.
#pragma once

#include <cstdint>

#include "obs/run_obs.h"
#include "obs/trace.h"
#include "sim/workload.h"

namespace gkr::perfbench {

// Steady-clock nanoseconds — the clock obs::Tracer and the obs timers use.
using obs::monotonic_ns;

// Record a benchmark span [start_ns, end_ns) (raw monotonic_ns() readings) into
// `tracer`; a null tracer records nothing. Names are static strings.
void emit_span(obs::Tracer* tracer, const char* name, std::int64_t start_ns, std::int64_t end_ns);

// Per-call costs of the layers' public entry points, measured from outside on
// the shape of one prepared workload (its topology, τ, K and transcripts).
struct LayerProbes {
  double mp_prepare_ns_per_endpoint = 0;  // MeetingPointsState::prepare
  double seed_fill_ns_per_endpoint = 0;   // SeedPlane::fill
  double step_full_ns_per_round = 0;      // RoundEngine::step_sparse, every dlink sending
  double step_sparse_ns_per_round = 0;    // RoundEngine::step_sparse, one BFS level sending
  double ecc_exchange_us = 0;             // EccPlane encode + decode_all; 0 without an exchange
  double rebuild_us = 0;                  // PartyReplayer::rebuild at the default cadence
  double reference_ms = 0;                // run_noiseless
};

// Each probe repeats its call for about `budget_s` seconds, in batches, and
// reports the median batch's per-call cost. Spans go to `tracer` (may be null).
LayerProbes probe_layers(const sim::Workload& w, double budget_s, obs::Tracer* tracer);

}  // namespace gkr::perfbench
