// Per-layer probes: each times one public entry point of a module, called from
// outside on the shape of a prepared workload. Nothing here reaches into the
// library's internals, so a change to a layer moves its probe only through
// the public call.
#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "core/meeting_points.h"
#include "core/transcript.h"
#include "ecc/concatenated_code.h"
#include "ecc/ecc_plane.h"
#include "ecc/secded.h"
#include "hash/seed_plane.h"
#include "hash/seed_source.h"
#include "net/round_engine.h"
#include "net/spanning_tree.h"
#include "perf.h"
#include "proto/noiseless.h"
#include "proto/replay.h"
#include "util/digest.h"
#include "util/stats.h"

namespace gkr::perfbench {

void emit_span(obs::Tracer* tracer, const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  if (tracer == nullptr) return;
  obs::TraceEvent ev;
  ev.name = name;
  ev.category = "bench";
  ev.ts_ns = start_ns - tracer->epoch_ns();
  ev.dur_ns = end_ns - start_ns;
  tracer->record(ev);
}

namespace {

// Folded results of every probed call, so no call can be optimised away.
volatile std::uint64_t g_sink = 0;

// A batch runs long enough for the clock reads around it not to matter.
constexpr std::int64_t kMinBatchNs = 200'000;
constexpr int kMinBatches = 7;

// Calls `call(i)` for i = 0, 1, ... in batches sized to at least kMinBatchNs
// until `budget_s` has passed (and at least kMinBatches batches ran); returns
// the median batch's nanoseconds per call. Each batch is one span.
template <typename Call>
double ns_per_call(obs::Tracer* tracer, const char* span, double budget_s, Call&& call) {
  long i = 0;
  long batch = 1;
  for (;;) {  // calibrate (also the warm-up)
    const std::int64_t t0 = monotonic_ns();
    for (long k = 0; k < batch; ++k) call(i++);
    if (monotonic_ns() - t0 >= kMinBatchNs) break;
    batch *= 2;
  }
  Accumulator per_call;
  const auto deadline = monotonic_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while (per_call.count() < static_cast<std::size_t>(kMinBatches) || monotonic_ns() < deadline) {
    const std::int64_t t0 = monotonic_ns();
    for (long k = 0; k < batch; ++k) call(i++);
    const std::int64_t t1 = monotonic_ns();
    emit_span(tracer, span, t0, t1);
    per_call.add(static_cast<double>(t1 - t0) / static_cast<double>(batch));
  }
  return per_call.percentile(50);
}

// The randomness exchange ships one 128-bit master per link
// (core/coding_scheme.cpp, kMasterBytes).
constexpr int kMasterBytes = 16;

}  // namespace

LayerProbes probe_layers(const sim::Workload& w, double budget_s, obs::Tracer* tracer) {
  LayerProbes out;
  const Topology& topo = *w.topo;
  const int m = topo.num_links();
  const int dlinks = topo.num_dlinks();
  const int tau = w.cfg.tau;
  const auto endpoints = static_cast<std::size_t>(dlinks);

  // ---- hash: one seed-plane fill per iteration, every endpoint -------------
  // Exchange variants expand per-link δ-biased masters; CRS variants share
  // one uniform source — the two SeedSource kinds the scheme installs.
  std::vector<std::unique_ptr<SeedSource>> owned;
  std::vector<const SeedSource*> sources(endpoints);
  std::vector<std::uint64_t> link_ids(endpoints);
  if (w.cfg.uses_exchange()) {
    for (int l = 0; l < m; ++l) {
      const auto key = static_cast<std::uint64_t>(l);
      owned.push_back(std::make_unique<BiasedSeedSource>(mix64(w.cfg.seed ^ key),
                                                         mix64(~w.cfg.seed ^ key)));
    }
  } else {
    owned.push_back(std::make_unique<UniformSeedSource>(mix64(w.cfg.seed)));
  }
  for (std::size_t e = 0; e < endpoints; ++e) {
    link_ids[e] = e / 2;
    sources[e] = owned[w.cfg.uses_exchange() ? e / 2 : 0].get();
  }
  const std::uint64_t slot_ids[2] = {MeetingPointsState::kSeedSlotK,
                                     MeetingPointsState::kSeedSlotPrefix};
  SeedPlane plane;
  plane.configure(endpoints, 2, 2 * static_cast<std::size_t>(tau));
  out.seed_fill_ns_per_endpoint =
      ns_per_call(tracer, "probe.seed_fill", budget_s, [&](long i) {
        plane.fill(sources.data(), link_ids.data(), static_cast<std::uint64_t>(i), slot_ids);
        g_sink = g_sink ^ plane.slot(static_cast<std::size_t>(i) % endpoints, 1)[0];
      }) /
      static_cast<double>(endpoints);

  // ---- core: meeting-points prepare at the run's final transcript length ---
  LinkTranscript transcript;
  for (const LinkChunkRecord& rec : w.reference.records[0]) transcript.append_chunk(rec);
  MeetingPointsState mp;
  out.mp_prepare_ns_per_endpoint = ns_per_call(tracer, "probe.mp_prepare", budget_s, [&](long i) {
    const MpSeeds seeds = plane.mp_seeds(static_cast<std::size_t>(i) % endpoints);
    const MpMessage msg = mp.prepare(transcript, seeds, tau);
    g_sink = g_sink ^ msg.h1 ^ (static_cast<std::uint64_t>(msg.h2) << 32);
  });

  // ---- net: one round with every dlink sending (meeting points) -----------
  {
    NoNoise none;
    RoundEngine engine(topo, none);
    PackedSymVec sent(endpoints), received(endpoints);
    for (std::size_t d = 0; d < endpoints; ++d) sent.set(d, (d & 1) != 0 ? Sym::One : Sym::Zero);
    std::vector<std::uint32_t> words(sent.num_words());
    std::iota(words.begin(), words.end(), 0u);
    out.step_full_ns_per_round = ns_per_call(tracer, "probe.step_full", budget_s, [&](long i) {
      engine.step_sparse(RoundContext{i, 1, Phase::MeetingPoints}, words, sent, received);
      g_sink = g_sink ^ received.word(0);
    });
  }

  // ---- net: one round with one BFS level sending up (flag passing) --------
  // The widest level of the BFS tree, each node sending to its parent.
  {
    const SpanningTree tree = SpanningTree::bfs(topo, 0);
    std::vector<int> width(static_cast<std::size_t>(tree.depth) + 1, 0);
    for (const int lv : tree.level) ++width[static_cast<std::size_t>(lv)];
    // Levels count from 1 at the root, which has no parent to send to.
    const auto widest = std::max_element(width.begin() + 2, width.end());
    const int level = static_cast<int>(widest - width.begin());
    NoNoise none;
    RoundEngine engine(topo, none);
    PackedSymVec sent(endpoints), received(endpoints);
    std::vector<std::uint32_t> words;
    for (int u = 0; u < topo.num_nodes(); ++u) {
      if (tree.level[static_cast<std::size_t>(u)] != level) continue;
      const int dl = topo.dlink_from(tree.parent_link[static_cast<std::size_t>(u)], u);
      sent.set(static_cast<std::size_t>(dl), Sym::One);
      words.push_back(static_cast<std::uint32_t>(static_cast<std::size_t>(dl) /
                                                 PackedSymVec::kSymsPerWord));
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    out.step_sparse_ns_per_round = ns_per_call(tracer, "probe.step_sparse", budget_s, [&](long i) {
      engine.step_sparse(RoundContext{i, 1, Phase::FlagPassing}, words, sent, received);
      g_sink = g_sink ^ received.word(words[0]);
    });
  }

  // ---- ecc: the exchange codec over all m link masters ---------------------
  if (w.cfg.uses_exchange()) {
    // Θ(|Π|·K/m) codeword bits, as the scheme sizes its exchange.
    const long target = static_cast<long>(w.proto->num_real_chunks()) * w.cfg.K / m;
    const ConcatenatedCode code(kMasterBytes, 0.5, static_cast<std::size_t>(target));
    EccPlane ecc(code, m);
    Rng rng(w.cfg.seed ^ 0xeccULL);
    std::vector<std::uint8_t> masters(static_cast<std::size_t>(m) * kMasterBytes);
    for (std::uint8_t& b : masters) b = static_cast<std::uint8_t>(rng.next_below(256));
    std::vector<std::uint8_t> decoded(masters.size()), ok(static_cast<std::size_t>(m));
    ecc.encode(masters);
    ecc.rx_reset();
    for (int l = 0; l < m; ++l) {
      for (long j = 0; j < ecc.rounds(); ++j) {
        ecc.rx_set(l, j, ecc.tx_bit(l, j) != 0 ? kWireOne : kWireZero);
      }
    }
    const double ns = ns_per_call(tracer, "probe.ecc_exchange", budget_s, [&](long) {
      ecc.encode(masters);
      const EccPlane::DecodeStats st = ecc.decode_all(decoded, ok);
      g_sink = g_sink ^ decoded[0] ^ static_cast<std::uint64_t>(st.rs_failures);
    });
    out.ecc_exchange_us = ns / 1e3;
  }

  // ---- proto: a replayer rebuild a few chunks behind the transcript end ----
  {
    const int interval = w.cfg.replay_checkpoint_interval > 0
                             ? w.cfg.replay_checkpoint_interval
                             : SchemeConfig{}.replay_checkpoint_interval;
    const RecordsChunkSource src(w.reference.records);
    std::vector<int> full, bounds(static_cast<std::size_t>(m));
    for (const std::vector<LinkChunkRecord>& link : w.reference.records) {
      full.push_back(static_cast<int>(link.size()));
    }
    PartyReplayer replayer(*w.proto, 0, w.inputs[0]);
    replayer.enable_checkpoints(interval);
    replayer.rebuild(src, full);  // lays down the checkpoint stack
    const double ns = ns_per_call(tracer, "probe.rebuild", budget_s, [&](long i) {
      const int back = 1 + static_cast<int>(i % (2 * interval));
      for (std::size_t l = 0; l < full.size(); ++l) bounds[l] = std::max(0, full[l] - back);
      replayer.rebuild(src, bounds);
      g_sink = g_sink ^ replayer.output();
    });
    out.rebuild_us = ns / 1e3;
  }

  // ---- proto: the noiseless reference --------------------------------------
  const double ns = ns_per_call(tracer, "probe.reference", budget_s, [&](long) {
    const NoiselessResult ref = run_noiseless(*w.proto, w.inputs);
    g_sink = g_sink ^ ref.outputs[0];
  });
  out.reference_ms = ns / 1e6;
  return out;
}

}  // namespace gkr::perfbench
