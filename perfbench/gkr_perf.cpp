// End-to-end benchmark of the coding scheme: one client runs coded
// simulations back to back (closed loop, single thread) over a pool of
// prepared workloads drawn from --seed, and reports the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). README.md gives the
// workload rationale and the layer -> metric -> workload map.
//
//   gkr_perf --workload ring_mp|party_scale --seed N --seconds S
//            --trace 0|1 [--trace-out FILE] [--smoke]
//
// A timed run is CodedSimulation construction plus run(). Workload,
// reference and adversary construction are set-up and stay outside it. Every
// pool case runs once untimed at ObsLevel::Counters first (warm-up and
// reference digests); the timed loop then runs whole passes over the pool,
// so each case runs k times, and every run's integer-counter digest must
// equal its case's reference — observability levels must not change
// behaviour. A case's cost is its fastest run (min-of-k); a pool holds at
// least kMinCases cases, so the percentiles of case costs rest on at least
// that many samples. The last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is nonzero when `correct` is false.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/coding_scheme.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "perf.h"
#include "sim/param_grid.h"
#include "sim/workload.h"
#include "util/digest.h"
#include "util/gf256_simd.h"
#include "util/gf2_64.h"
#include "util/rng.h"
#include "util/stats.h"

namespace gkr::perfbench {
namespace {

// ------------------------------------------------------------------ workloads

// One shape of coded simulation; a pool cycles its workload's scenarios.
struct Scenario {
  Variant variant;
  const char* topology;  // ring | expander (degree 4)
  int n;
  int gossip_rounds;
  double iteration_factor;
  const char* noise;  // sim::noise_factory atom
  double mu;
};

struct WorkloadDef {
  std::vector<Scenario> scenarios;  // pool workload i uses scenarios[i % size]
  int instances = 0;                // workloads (topology + inputs + reference) per pool
  int cases_per_instance = 0;       // adversary draws per workload
};

// Pool size outside smoke mode: run_ms_p90 then has ten case costs beyond it.
constexpr int kMinCases = 100;

bool workload_def(const std::string& name, bool smoke, WorkloadDef& def) {
  if (name == "ring_mp") {
    // Each no-CRS variant against its own threat model: Algorithm A under
    // oblivious uniform noise, Algorithm B under the adaptive greedy attacker.
    // At iteration factor 3 AlgB has only the 8-iteration floor and about 1%
    // of its runs fail against greedy; at 6 none of 1000 did.
    const int n = smoke ? 6 : 16, rounds = smoke ? 4 : 12;
    def.scenarios = {
        {Variant::ExchangeOblivious, "ring", n, rounds, 3.0, "uniform", 0.0003},
        {Variant::ExchangeNonOblivious, "ring", n, rounds, 6.0, "greedy", 0.0001},
    };
    def.instances = smoke ? 2 : 26;
    def.cases_per_instance = smoke ? 1 : 4;
  } else if (name == "party_scale") {
    // Algorithm 1 (CRS) on expanders: mostly sparse rounds. The channel is
    // noiseless — at iteration factor 1 the timetable has no slack, and even
    // the i.i.d. channel at μ = 1e-7 (about four corruptions a run at
    // n = 4096) fails a third of the runs, so every pool case is its own
    // expander. n = 512 keeps kMinCases expanders near 240 MiB; at n = 4096
    // they would take about 2 GiB and 15 s a pass.
    def.scenarios = {
        {Variant::Crs, "expander", smoke ? 256 : 512, 6, 1.0, "none", 0.0},
    };
    def.instances = smoke ? 2 : kMinCases;
    def.cases_per_instance = 1;
  } else {
    return false;
  }
  GKR_ASSERT(smoke || def.instances * def.cases_per_instance >= kMinCases);
  return true;
}

// Disjoint seed streams of one pool.
enum SeedStream : std::uint64_t { kTopologySeeds = 1, kWorkloadSeeds = 2, kNoiseSeeds = 3 };

std::shared_ptr<Topology> build_topology(const Scenario& s, std::uint64_t seed) {
  if (std::strcmp(s.topology, "ring") == 0) return std::make_shared<Topology>(Topology::ring(s.n));
  Rng rng(seed);
  return std::make_shared<Topology>(Topology::expander(s.n, 4, rng));
}

// One pooled coded simulation: a prepared workload plus its adversary recipe.
struct Case {
  const sim::Workload* workload = nullptr;
  const sim::NoiseFactory* noise = nullptr;
  double mu = 0.0;
  std::uint64_t noise_seed = 0;
};

struct Pool {
  std::vector<std::unique_ptr<sim::Workload>> workloads;
  std::vector<std::unique_ptr<sim::NoiseFactory>> noises;  // one per workload
  std::vector<Case> cases;
};

struct SetupTimes {
  Accumulator setup_s;      // whole pool builds
  Accumulator workload_ms;  // topology + make_workload (reference included)
  Accumulator noise_ms;     // first adversary build (pays clean-run probes)
};

// Builds every workload of the pool and pays each adversary's one-off
// planning cost (the uniform plan's clean-run probe) by building it once.
std::unique_ptr<Pool> build_pool(const WorkloadDef& def, std::uint64_t seed, SetupTimes& times,
                                  obs::Tracer* tracer) {
  const std::int64_t t_setup = monotonic_ns();
  auto pool = std::make_unique<Pool>();
  for (int i = 0; i < def.instances; ++i) {
    const Scenario& s = def.scenarios[static_cast<std::size_t>(i) % def.scenarios.size()];
    const auto idx = static_cast<std::uint64_t>(i);

    const std::int64_t t0 = monotonic_ns();
    std::shared_ptr<Topology> topo = build_topology(s, derive_seed(seed, kTopologySeeds, idx));
    auto w = std::make_unique<sim::Workload>(sim::gossip_workload(
        std::move(topo), s.variant, derive_seed(seed, kWorkloadSeeds, idx), s.gossip_rounds,
        s.iteration_factor));
    const std::int64_t t1 = monotonic_ns();
    emit_span(tracer, "workload_build", t0, t1);
    times.workload_ms.add(static_cast<double>(t1 - t0) / 1e6);

    auto noise = std::make_unique<sim::NoiseFactory>(sim::noise_factory(s.noise));
    const auto draws = static_cast<std::uint64_t>(def.cases_per_instance);
    for (std::uint64_t c = 0; c < draws; ++c) {
      pool->cases.push_back(
          Case{w.get(), noise.get(), s.mu, derive_seed(seed, kNoiseSeeds, idx * draws + c)});
    }
    Rng rng(pool->cases.back().noise_seed);
    const std::int64_t t2 = monotonic_ns();
    (void)noise->build(*w, s.mu, rng);
    const std::int64_t t3 = monotonic_ns();
    emit_span(tracer, "noise_build", t2, t3);
    times.noise_ms.add(static_cast<double>(t3 - t2) / 1e6);

    pool->workloads.push_back(std::move(w));
    pool->noises.push_back(std::move(noise));
  }
  const std::int64_t t_end = monotonic_ns();
  emit_span(tracer, "setup", t_setup, t_end);
  times.setup_s.add(static_cast<double>(t_end - t_setup) / 1e9);
  return pool;
}

// ---------------------------------------------------------------- measurement

// The integer-counter fold of the adversary corpus (tests/
// adversary_corpus_test.cpp, bench/bench_party_scale.cpp): success flags,
// communication counters and every protocol-visible event count.
std::uint64_t result_digest(const SimulationResult& r) {
  std::uint64_t d = 0x9d6f0a7c5b3e1842ULL;
  const auto fold = [&d](std::uint64_t x) { d = mix64(d ^ mix64(x)); };
  fold(r.success ? 1 : 0);
  fold(r.outputs_match ? 1 : 0);
  fold(r.transcripts_match ? 1 : 0);
  fold(static_cast<std::uint64_t>(r.cc_coded));
  fold(static_cast<std::uint64_t>(r.cc_user));
  fold(static_cast<std::uint64_t>(r.cc_chunked));
  fold(static_cast<std::uint64_t>(r.counters.rounds));
  fold(static_cast<std::uint64_t>(r.counters.transmissions));
  fold(static_cast<std::uint64_t>(r.counters.corruptions));
  fold(static_cast<std::uint64_t>(r.counters.substitutions));
  fold(static_cast<std::uint64_t>(r.counters.deletions));
  fold(static_cast<std::uint64_t>(r.counters.insertions));
  for (long v : r.counters.transmissions_by_phase) fold(static_cast<std::uint64_t>(v));
  for (long v : r.counters.corruptions_by_phase) fold(static_cast<std::uint64_t>(v));
  fold(static_cast<std::uint64_t>(r.hash_collisions));
  fold(static_cast<std::uint64_t>(r.mp_truncations));
  fold(static_cast<std::uint64_t>(r.rewind_truncations));
  fold(static_cast<std::uint64_t>(r.rewinds_sent));
  fold(static_cast<std::uint64_t>(r.exchange_failures));
  fold(static_cast<std::uint64_t>(r.iterations));
  fold(static_cast<std::uint64_t>(r.replayer_rebuilds));
  return d;
}

// A run slower than this counts as failed (timed out).
constexpr double kRunTimeoutMs = 30'000.0;

// Sums over the runs of one measurement, for the per-layer metrics.
struct Totals {
  std::array<double, kNumPhases> phase_ns{};
  double evaluate_ns = 0, ctrl_ns = 0, total_ns = 0, construct_ns = 0;
  double probe_rounds = 0, deliver_ns = 0, classify_ns = 0;
  double rounds = 0, iterations = 0, hash_collisions = 0, truncated_chunks = 0;
  double payload_bits = 0, cc_coded = 0;
  double symbol_erasures = 0, rs_failures = 0, rebuilds = 0, replayed_chunks = 0;

  void add(const SimulationResult& r, std::int64_t construct) {
    for (int p = 0; p < kNumPhases; ++p) {
      phase_ns[static_cast<std::size_t>(p)] +=
          static_cast<double>(r.timings.phase_ns[static_cast<std::size_t>(p)]);
    }
    evaluate_ns += static_cast<double>(r.timings.evaluate_ns);
    ctrl_ns += static_cast<double>(r.timings.ctrl_ns);
    total_ns += static_cast<double>(r.timings.total_ns);
    construct_ns += static_cast<double>(construct);
    probe_rounds += static_cast<double>(r.delivery_probe.rounds);
    deliver_ns += static_cast<double>(r.delivery_probe.deliver_ns);
    classify_ns += static_cast<double>(r.delivery_probe.classify_ns);
    rounds += static_cast<double>(r.counters.rounds);
    iterations += r.iterations;
    hash_collisions += static_cast<double>(r.hash_collisions);
    truncated_chunks += static_cast<double>(r.mp_truncations + r.rewind_truncations);
    payload_bits += static_cast<double>(
        r.counters.transmissions_by_phase[static_cast<std::size_t>(Phase::Simulation)]);
    cc_coded += static_cast<double>(r.cc_coded);
    symbol_erasures += static_cast<double>(r.ecc_symbol_erasures);
    rs_failures += r.ecc_rs_failures;
    rebuilds += static_cast<double>(r.replayer_rebuilds);
    replayed_chunks += static_cast<double>(r.replayed_chunks);
  }
};

struct Measurement {
  std::vector<double> run_ms;  // construction + run(), per timed run
  long attempted = 0;
  long failed = 0;
  long mismatches = 0;  // runs whose digest differs from their case's reference
  long crashes = 0;     // runs that threw
  Totals totals;
  std::vector<std::uint64_t> digests;  // per case, from the first pass
  Accumulator blowups;                 // per case, from the first pass
  std::vector<std::vector<double>> case_ms;  // run times of each case, one per pass

  // Every run of a case does the same work, so its runs differ only by what
  // else the machine was doing — and that only ever slows a run down. The
  // fastest of a case's k runs (min-of-k) is its cost.
  std::vector<double> case_best_ms() const {
    std::vector<double> best;
    for (const std::vector<double>& runs : case_ms) {
      if (!runs.empty()) best.push_back(*std::min_element(runs.begin(), runs.end()));
    }
    return best;
  }

  // Runs per second of a pass in which every case takes its best time.
  double runs_per_s() const {
    const std::vector<double> best = case_best_ms();
    double ms = 0;
    for (double x : best) ms += x;
    return safe_ratio(static_cast<double>(best.size()), ms / 1e3);
  }
};

// One pooled case: adversary build (set-up, untimed) then the timed
// construction + run().
void run_case(const Case& c, obs::ObsLevel level, obs::Tracer* tracer, Measurement& m,
              std::size_t case_index, const std::vector<std::uint64_t>* reference) {
  const sim::Workload& w = *c.workload;
  Rng rng(c.noise_seed);
  const std::int64_t a0 = monotonic_ns();
  sim::BuiltNoise noise = c.noise->build(w, c.mu, rng);
  emit_span(tracer, "adversary_build", a0, monotonic_ns());
  NoNoise none;
  ChannelAdversary& adv = noise.adversary ? *noise.adversary : static_cast<ChannelAdversary&>(none);
  SchemeConfig cfg = w.cfg;
  cfg.observability = level;
  cfg.tracer = tracer;

  ++m.attempted;
  SimulationResult r;
  std::int64_t t0 = 0, t1 = 0, t2 = 0;
  try {
    t0 = monotonic_ns();
    CodedSimulation sim(*w.proto, w.inputs, w.reference, cfg, adv);
    t1 = monotonic_ns();
    r = sim.run();
    t2 = monotonic_ns();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gkr_perf: case %zu threw: %s\n", case_index, e.what());
    ++m.failed;
    ++m.crashes;
    if (m.digests.size() == case_index) {
      m.digests.push_back(0);
      m.blowups.add(0.0);
    }
    return;
  }
  emit_span(tracer, "construct", t0, t1);
  emit_span(tracer, "run", t1, t2);
  const double ms = static_cast<double>(t2 - t0) / 1e6;
  m.run_ms.push_back(ms);
  if (m.case_ms.size() <= case_index) m.case_ms.resize(case_index + 1);
  m.case_ms[case_index].push_back(ms);
  if (!r.success || ms > kRunTimeoutMs) ++m.failed;
  m.totals.add(r, t1 - t0);

  const std::uint64_t d = result_digest(r);
  if (m.digests.size() == case_index) {
    m.digests.push_back(d);
    m.blowups.add(r.blowup_vs_chunked);
  }
  if (reference != nullptr && (*reference)[case_index] != d) ++m.mismatches;
}

// One pass: every pool case once, in order.
void run_pass(const Pool& pool, obs::ObsLevel level, obs::Tracer* tracer, Measurement& m,
              const std::vector<std::uint64_t>* reference) {
  for (std::size_t i = 0; i < pool.cases.size(); ++i) {
    run_case(pool.cases[i], level, tracer, m, i, reference);
  }
}

// ------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* moves = nullptr;  // per-layer: the end-to-end metric it should move, and where
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Everything needed to tell two result sets apart: build, machine, and the
// GF(2^8) kernel the dispatcher chose (an AVX2 number is not a portable one).
void print_meta(const std::string& workload, std::uint64_t seed, double seconds, bool trace) {
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"git_sha\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", \"cpu\": \"%s\", "
      "\"nproc\": %u, \"gf256_kernel\": \"%s\", \"gf256_portable_forced\": %s, "
      "\"gf64_clmul\": %s}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
      GKR_PERF_GIT_SHA, json_escape(GKR_PERF_COMPILER).c_str(), GKR_PERF_BUILD_TYPE,
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      gf256_kernel_name(gf256_kernel_level()), gf256_force_portable() ? "true" : "false",
      gf64_has_clmul() ? "true" : "false");
}

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Share of run() wall time the phase, evaluation and controller timers
// account for; below kMinTimerCoverage the per-phase split does not count.
constexpr double kMinTimerCoverage = 0.95;

double timer_coverage(const Totals& t) {
  double covered = t.evaluate_ns + t.ctrl_ns;
  for (double v : t.phase_ns) covered += v;
  return safe_ratio(covered, t.total_ns);
}

std::vector<Metric> layer_metrics(const Measurement& plain, const Measurement& traced,
                                  const SetupTimes& setup, const LayerProbes& probes) {
  const Totals& t = traced.totals;
  const double runs = static_cast<double>(traced.run_ms.size());
  const auto per_run_ms = [&](double ns) { return safe_ratio(ns, runs) / 1e6; };
  const auto phase = [&](Phase p) { return t.phase_ns[static_cast<std::size_t>(p)]; };

  std::vector<Metric> out;
  const auto add = [&](const char* name, const char* unit, const char* moves, double value) {
    out.push_back({name, value, unit, moves});
  };
  add("core.mp_ms_per_run", "ms", "runs_per_s on ring_mp",
      per_run_ms(phase(Phase::MeetingPoints)));
  add("core.mp_share", "ratio", "runs_per_s on ring_mp",
      safe_ratio(phase(Phase::MeetingPoints), t.total_ns));
  add("core.exchange_ms_per_run", "ms", "runs_per_s on ring_mp (0 elsewhere)",
      per_run_ms(phase(Phase::RandomnessExchange)));
  add("core.flags_ms_per_run", "ms", "runs_per_s on party_scale",
      per_run_ms(phase(Phase::FlagPassing)));
  add("core.simulation_ms_per_run", "ms", "runs_per_s on party_scale",
      per_run_ms(phase(Phase::Simulation)));
  add("core.construct_ms_per_run", "ms", "runs_per_s on party_scale",
      per_run_ms(t.construct_ns));
  add("core.rewind_ms_per_run", "ms", "run_ms_p90 on ring_mp",
      per_run_ms(phase(Phase::Rewind)));
  add("core.evaluate_ms_per_run", "ms", "run_ms_p90 on ring_mp",
      per_run_ms(t.evaluate_ns));
  add("core.timer_coverage", "ratio", "must be >= 0.95 for the split to count",
      timer_coverage(t));
  add("core.mp_prepare_ns_per_endpoint", "ns", "runs_per_s on ring_mp",
      probes.mp_prepare_ns_per_endpoint);
  add("core.iterations_per_run", "count", "count, ring_mp",
      safe_ratio(t.iterations, runs));
  add("core.hash_collisions_per_run", "count", "count, ring_mp",
      safe_ratio(t.hash_collisions, runs));
  add("core.truncated_chunks_per_iteration", "ratio", "wasted work, ring_mp",
      safe_ratio(t.truncated_chunks, t.iterations));
  add("core.payload_share", "ratio", "blowup_vs_chunked on all",
      safe_ratio(t.payload_bits, t.cc_coded));
  add("hash.seed_fill_ns_per_endpoint", "ns", "runs_per_s on ring_mp",
      probes.seed_fill_ns_per_endpoint);
  add("net.step_full_ns_per_round", "ns", "runs_per_s on ring_mp",
      probes.step_full_ns_per_round);
  add("net.step_sparse_ns_per_round", "ns", "runs_per_s on party_scale",
      probes.step_sparse_ns_per_round);
  add("net.deliver_ns_per_round", "ns", "runs_per_s on party_scale",
      safe_ratio(t.deliver_ns, t.probe_rounds));
  add("net.classify_ns_per_round", "ns", "runs_per_s on party_scale",
      safe_ratio(t.classify_ns, t.probe_rounds));
  add("net.rounds_per_run", "count", "count",
      safe_ratio(t.rounds, runs));
  add("ecc.exchange_us", "us", "runs_per_s on ring_mp (0 without an exchange)",
      probes.ecc_exchange_us);
  add("ecc.symbol_erasures_per_run", "count", "success_rate on ring_mp",
      safe_ratio(t.symbol_erasures, runs));
  add("ecc.rs_failures_per_run", "count", "success_rate on ring_mp",
      safe_ratio(t.rs_failures, runs));
  add("proto.rebuild_us", "us", "run_ms_p90 on ring_mp",
      probes.rebuild_us);
  add("proto.rebuilds_per_run", "count", "run_ms_p90 on ring_mp",
      safe_ratio(t.rebuilds, runs));
  add("proto.replayed_chunks_per_rebuild", "count", "run_ms_p90 on ring_mp",
      safe_ratio(t.replayed_chunks, t.rebuilds));
  add("proto.reference_ms", "ms", "setup_s on party_scale",
      probes.reference_ms);
  // Means: a pool mixes scenarios whose builds differ (only `uniform` runs a
  // clean-run probe), and set-up time is their sum.
  add("sim.workload_build_ms", "ms", "setup_s on party_scale",
      setup.workload_ms.mean());
  add("noise.build_ms", "ms", "setup_s on ring_mp",
      setup.noise_ms.mean());
  add("obs.tracing_overhead", "ratio", "untraced / traced runs_per_s",
      safe_ratio(plain.runs_per_s(), traced.runs_per_s()));
  return out;
}

void print_table(const std::vector<Metric>& metrics, bool per_layer) {
  TablePrinter table(per_layer ? std::vector<std::string>{"metric", "value", "unit", "should move"}
                               : std::vector<std::string>{"metric", "value", "unit"});
  for (const Metric& m : metrics) {
    std::vector<std::string> row = {m.name, strf("%.6g", m.value), m.unit};
    if (per_layer) row.push_back(m.moves);
    table.add_row(std::move(row));
  }
  table.print();
}

// ---------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
      have_trace = end != v && *end == '\0' && (a.trace == 0 || a.trace == 1);
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

int run(const Args& a) {
  WorkloadDef def;
  if (!workload_def(a.workload, a.smoke, def)) {
    std::fprintf(stderr, "gkr_perf: unknown workload '%s' (ring_mp, party_scale)\n",
                 a.workload.c_str());
    return 2;
  }
  print_meta(a.workload, a.seed, a.seconds, a.trace == 1);
  // 128Ki spans (8 MiB) hold the set-up, the probes and the first traced
  // passes; later spans are counted as dropped. The per-layer metrics come
  // from the run timers, not from spans.
  std::unique_ptr<obs::Tracer> tracer =
      a.trace == 1 ? std::make_unique<obs::Tracer>(std::size_t{1} << 17) : nullptr;

  // Set-up samples are spread over the whole run: the first build, then a
  // rebuild between passes every seconds / setup_reps, and setup_s is the
  // fastest (min-of-k, like the runs). Rebuilds take about a tenth of the
  // run, within 15..40 of them. The old pool is freed before each rebuild,
  // so peak RSS holds one pool; a rebuilt pool equals the first (same seed),
  // which the digest checks confirm.
  SetupTimes setup;
  std::unique_ptr<Pool> pool = build_pool(def, a.seed, setup, tracer.get());
  const int setup_reps =
      a.smoke ? 2 : std::clamp(static_cast<int>(0.1 * a.seconds / setup.setup_s.min()), 15, 40);

  // Untimed warm-up pass at Counters: the per-case reference digests.
  Measurement warm;
  run_pass(*pool, obs::ObsLevel::Counters, nullptr, warm, nullptr);
  const long min_runs = a.smoke ? 1 : 100;

  // Whole passes until `seconds` have elapsed and at least `min_runs` runs
  // were timed.
  const std::int64_t start = monotonic_ns();
  const auto measure = [&](obs::ObsLevel level, obs::Tracer* t, double seconds, long runs) {
    Measurement m;
    const std::int64_t deadline = monotonic_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      run_pass(*pool, level, t, m, &warm.digests);
      const auto samples = static_cast<double>(setup.setup_s.count());
      if (samples < setup_reps &&
          static_cast<double>(monotonic_ns() - start) / 1e9 >= a.seconds * samples / setup_reps) {
        pool.reset();
        pool = build_pool(def, a.seed, setup, tracer.get());
      }
    } while (monotonic_ns() < deadline || m.attempted < runs);
    return m;
  };

  std::vector<Metric> metrics;
  long attempted = 0, failed = 0, mismatches = 0, crashes = warm.crashes;
  bool coverage_ok = true;
  if (a.trace == 0) {
    const Measurement m = measure(obs::ObsLevel::Off, nullptr, a.seconds, min_runs);
    attempted = m.attempted;
    failed = m.failed;
    mismatches = m.mismatches;
    crashes += m.crashes;
    Accumulator best, all;
    for (double x : m.case_best_ms()) best.add(x);
    for (double x : m.run_ms) all.add(x);
    const auto pct = [](const Accumulator& acc, double p) {
      return acc.count() > 0 ? acc.percentile(p) : 0.0;  // empty only if every run threw
    };
    metrics = {
        {"runs_per_s", m.runs_per_s(), "1/s"},
        {"run_ms_p50", pct(best, 50), "ms"},
        {"run_ms_p90", pct(best, 90), "ms"},
        {"setup_s", setup.setup_s.min(), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"success_rate", safe_ratio(static_cast<double>(m.attempted - m.failed),
                                    static_cast<double>(m.attempted)), "ratio"},
        {"blowup_vs_chunked", warm.blowups.mean(), "ratio"},
    };
    std::printf("timed runs: %zu over %zu pool cases (%zu passes); every timed run: p50 %.3f ms, "
                "p90 %.3f ms; per-case best: min %.3f ms, max %.3f ms\n",
                m.run_ms.size(), pool->cases.size(), m.run_ms.size() / pool->cases.size(),
                pct(all, 50), pct(all, 90), best.min(), best.max());
    print_table(metrics, false);
  } else {
    // Half the time untraced, half traced (Full: phase timers, delivery probe
    // and spans); the ratio is the tracing overhead. The probes run before
    // the traced half, whose spans may fill the tracer.
    const Measurement plain = measure(obs::ObsLevel::Off, nullptr, a.seconds / 2, min_runs / 2);
    const LayerProbes probes =
        probe_layers(*pool->workloads.front(), a.smoke ? 0.02 : 0.25, tracer.get());
    const Measurement traced =
        measure(obs::ObsLevel::Full, tracer.get(), a.seconds / 2, min_runs / 2);
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    mismatches = plain.mismatches + traced.mismatches;
    crashes += plain.crashes + traced.crashes;
    metrics = layer_metrics(plain, traced, setup, probes);
    const double coverage = timer_coverage(traced.totals);
    coverage_ok = coverage >= kMinTimerCoverage;
    std::printf("timed runs: %zu untraced + %zu traced over %zu pool cases; spans recorded %zu, "
                "dropped %zu\n",
                plain.run_ms.size(), traced.run_ms.size(), pool->cases.size(), tracer->recorded(),
                tracer->dropped());
    std::printf("timer coverage %.4f (%s %.2f), tracing overhead %.4f (untraced / traced runs_per_s)\n",
                coverage, coverage_ok ? "at least" : "BELOW", kMinTimerCoverage,
                safe_ratio(plain.runs_per_s(), traced.runs_per_s()));
    print_table(metrics, true);
    if (!a.trace_out.empty()) {
      std::ofstream out(a.trace_out);
      tracer->write_chrome_json(out);
      if (!out) {
        std::fprintf(stderr, "gkr_perf: cannot write %s\n", a.trace_out.c_str());
        return 1;
      }
      std::printf("chrome trace: %s\n", a.trace_out.c_str());
    }
  }

  std::uint64_t digest = 0x6a09e667f3bcc908ULL;
  for (std::uint64_t d : warm.digests) digest = mix64(digest ^ d);
  std::printf("digest %016llx (%zu cases), mismatched runs %ld, crashed runs %ld, failed runs %ld\n",
              static_cast<unsigned long long>(digest), warm.digests.size(), mismatches, crashes,
              failed + warm.failed);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  std::printf("rusage user %.3f s, system %.3f s, minor faults %ld, involuntary switches %ld\n",
              seconds(ru.ru_utime), seconds(ru.ru_stime), ru.ru_minflt, ru.ru_nivcsw);
  const bool correct =
      mismatches == 0 && crashes == 0 && failed == 0 && warm.failed == 0 && coverage_ok;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gkr::perfbench

int main(int argc, char** argv) {
  gkr::perfbench::Args args;
  if (!gkr::perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  return gkr::perfbench::run(args);
}
