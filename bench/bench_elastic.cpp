// Elastic data-parallel training under fault weather.
//
// Four scenarios on the in-process DataParallelTrainer with
// elastic_world = true:
//   steady      — ws4, no faults: the baseline step time.
//   kill_shrink — ws4, one rank killed mid-run via sf::fault: measures
//                 the recovery latency (detect + quiesce + rebuild +
//                 re-shard), the steps lost, and the post-recovery step
//                 time at ws3 (the throughput dip).
//   shrink_grow — the ISSUE acceptance path ws4 -> ws2 -> ws4: planned
//                 shrink_to/grow_to with training in between; survivors
//                 and regrown ranks must stay in bit-identical lockstep.
//   chaos       — a seeded fault schedule (kills at step boundaries,
//                 delay-only jitter on the inner comm sites) over a short
//                 run, executed twice: the final parameters must replay
//                 BIT-IDENTICALLY from the same schedule + seed.
//
// The chaos seed comes from the SF_SEED environment variable (default
// 2024) so CI can pin the weather.
//
// Output: BENCH_elastic.json (override with --out <path>). Each row
// carries only the figures its scenario measures: steady a step time;
// kill_shrink the pre/post step times, dip, recovery and losses;
// shrink_grow the post-regrow step time and the slowest resize; chaos the
// losses, the slowest recovery and the bitwise-replay verdict.
//
// --check: exit non-zero if any scenario loses replica lockstep, if the
// kill recovery latency is unbounded (> 10 s on this toy model), if more
// than the in-flight step is lost, if the post-recovery step time is not
// within a generous 3x of the pre-kill step time, or if the chaos run is
// not bitwise replayable.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "data/protein_sample.h"
#include "train/data_parallel.h"

using namespace sf;

namespace {

model::ModelConfig bench_model() {
  model::ModelConfig c;
  c.crop_len = 16;
  c.msa_rows = 4;
  c.c_m = 16;
  c.c_z = 16;
  c.c_s = 16;
  c.heads = 2;
  c.head_dim = 8;
  c.evoformer_blocks = 2;
  c.use_extra_msa_stack = false;
  c.use_template_stack = false;
  c.opm_dim = 4;
  c.transition_factor = 2;
  c.structure_layers = 1;
  return c;
}

train::TrainConfig elastic_cfg() {
  train::TrainConfig tc;
  tc.base_lr = 1e-3f;
  tc.warmup_steps = 0;
  tc.min_recycles = 1;
  tc.max_recycles = 1;
  tc.opt.clip_norm = 5.0f;
  tc.overlap_grad_comm = true;
  tc.elastic_world = true;
  return tc;
}

std::vector<data::Batch> make_batches(int n) {
  data::DatasetConfig c;
  c.num_samples = n;
  c.crop_len = 16;
  c.msa_rows = 4;
  c.msa_work_cap = 64;
  c.seed = 31;
  data::SyntheticProteinDataset ds(c);
  std::vector<data::Batch> out;
  for (int i = 0; i < n; ++i) out.push_back(ds.prepare_batch(i));
  return out;
}

std::span<const data::Batch> first_n(const std::vector<data::Batch>& b,
                                     int n) {
  return {b.data(), static_cast<size_t>(n)};
}

bool lockstep_ok(train::DataParallelTrainer& dp) {
  for (int r = 1; r < dp.world_size(); ++r) {
    if (dp.replica_divergence(r) != 0.0f) return false;
  }
  return true;
}

std::vector<float> param_snapshot(train::DataParallelTrainer& dp) {
  std::vector<float> out;
  for (const auto& p : dp.replica(0).params().all()) {
    const float* d = p.value().data();
    out.insert(out.end(), d, d + p.value().numel());
  }
  return out;
}

/// One scenario's figures. Every row has the world sizes, step count and
/// lockstep verdict; the optional figures are set only by the scenarios
/// that measure them, and unset ones are left out of the artifact.
struct Row {
  std::string scenario;
  int ws_start = 0;
  int ws_end = 0;
  int steps = 0;
  bool lockstep = false;
  std::optional<int> steps_lost;
  std::optional<int> ranks_lost;
  std::optional<double> step_s;       ///< steady-state mean step time
  std::optional<double> pre_step_s;   ///< mean step time before the event
  std::optional<double> post_step_s;  ///< mean step time after the event
  std::optional<double> recovery_s;
  std::optional<double> dip;  ///< post/pre step-time ratio
  std::optional<bool> bitwise_replay;
};

void write_json(const std::vector<Row>& rows, uint64_t seed,
                const std::string& path) {
  std::ofstream f(path);
  f << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "  {\"scenario\": \"" << r.scenario << "\", \"seed\": " << seed
      << ", \"ws_start\": " << r.ws_start << ", \"ws_end\": " << r.ws_end
      << ", \"steps\": " << r.steps
      << ", \"lockstep\": " << (r.lockstep ? "true" : "false");
    auto put = [&f](const char* key, const auto& v) {
      if (v) f << ", \"" << key << "\": " << *v;
    };
    put("steps_lost", r.steps_lost);
    put("ranks_lost", r.ranks_lost);
    put("step_s", r.step_s);
    put("pre_step_s", r.pre_step_s);
    put("post_step_s", r.post_step_s);
    put("recovery_s", r.recovery_s);
    put("dip", r.dip);
    if (r.bitwise_replay) {
      f << ", \"bitwise_replay\": " << (*r.bitwise_replay ? "true" : "false");
    }
    f << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "]\n";
}

// Console-table cells: "-" where the scenario does not measure the figure.
std::string show_ms(std::optional<double> seconds) {
  if (!seconds) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", *seconds * 1e3);
  return buf;
}

std::string show(std::optional<int> v) {
  return v ? std::to_string(*v) : "-";
}

constexpr int kPreSteps = 3;
constexpr int kPostSteps = 3;

Row run_steady(const std::vector<data::Batch>& batches) {
  Row row;
  row.scenario = "steady";
  row.ws_start = row.ws_end = 4;
  train::DataParallelTrainer dp(bench_model(), elastic_cfg(), 4, 7);
  double total = 0.0;
  for (int s = 0; s < kPreSteps + kPostSteps; ++s) {
    auto r = dp.train_step(first_n(batches, 4));
    if (s > 0) total += r.seconds;
    ++row.steps;
  }
  row.step_s = total / (row.steps - 1);
  row.lockstep = lockstep_ok(dp);
  return row;
}

Row run_kill_shrink(const std::vector<data::Batch>& batches) {
  Row row;
  row.scenario = "kill_shrink";
  row.ws_start = 4;
  train::DataParallelTrainer dp(bench_model(), elastic_cfg(), 4, 7);
  double pre = 0.0;
  for (int s = 0; s < kPreSteps; ++s) {
    auto r = dp.train_step(first_n(batches, 4));
    if (s > 0) pre += r.seconds;
    ++row.steps;
  }
  row.pre_step_s = pre / (kPreSteps - 1);

  fault::SiteConfig kill;
  kill.kill = true;
  kill.max_fires = 1;
  fault::arm("ddp.rank_step", kill);
  auto r = dp.train_step(first_n(batches, 4));
  fault::reset();
  ++row.steps;
  row.ranks_lost = r.ranks_lost;
  row.steps_lost = r.lost_to_fault ? 1 : 0;
  row.recovery_s = dp.elastic_events().empty()
                       ? 0.0
                       : dp.elastic_events().back().recovery_seconds;

  double post = 0.0;
  for (int s = 0; s < kPostSteps + 1; ++s) {
    auto rr = dp.train_step(first_n(batches, dp.world_size()));
    if (s > 0) post += rr.seconds;
    ++row.steps;
  }
  row.post_step_s = post / kPostSteps;
  row.dip = *row.pre_step_s > 0 ? *row.post_step_s / *row.pre_step_s : 0.0;
  row.ws_end = dp.world_size();
  row.lockstep = lockstep_ok(dp);
  return row;
}

Row run_shrink_grow(const std::vector<data::Batch>& batches) {
  Row row;
  row.scenario = "shrink_grow";
  row.ws_start = 4;
  train::DataParallelTrainer dp(bench_model(), elastic_cfg(), 4, 7);
  for (int s = 0; s < 2; ++s) {
    dp.train_step(first_n(batches, 4));
    ++row.steps;
  }
  dp.shrink_to(2);
  for (int s = 0; s < 2; ++s) {
    dp.train_step(first_n(batches, 2));
    ++row.steps;
  }
  dp.grow_to(4);
  double post = 0.0;
  for (int s = 0; s < kPostSteps; ++s) {
    auto r = dp.train_step(first_n(batches, 4));
    post += r.seconds;
    ++row.steps;
  }
  row.post_step_s = post / kPostSteps;
  double slowest = 0.0;
  for (const auto& ev : dp.elastic_events()) {
    slowest = std::max(slowest, ev.recovery_seconds);
  }
  row.recovery_s = slowest;
  row.ws_end = dp.world_size();
  row.lockstep = lockstep_ok(dp);
  return row;
}

/// The chaos schedule: seeded probabilistic kills at the step boundary
/// (where the per-step hit count is deterministic, so the schedule
/// replays fire-for-fire) plus delay-only jitter on the inner comm sites
/// (timing chaos that cannot change any bits).
fault::Schedule chaos_schedule(uint64_t seed) {
  fault::Schedule schedule;
  fault::SiteConfig kill;
  kill.kill = true;
  kill.probability = 0.15;
  kill.max_fires = 2;
  kill.skip_hits = 4;  // let the first step finish cleanly
  kill.seed = seed ^ 0x5eedf00dULL;
  schedule.push_back({"ddp.rank_step", kill});

  fault::ChaosOptions jitter;
  jitter.seed = seed;
  jitter.mean_probability = 0.05;
  jitter.kill_fraction = 0.0;
  jitter.delay_fraction = 1.0;  // delay-only: jitter, never throws
  jitter.max_delay_seconds = 1e-3;
  jitter.max_fires_per_site = 8;
  jitter.max_skip_hits = 4;
  auto inner = fault::random_schedule(
      {"ddp.bucket_launch", "ddp.bucket_wait", "dap.async_reduce"}, jitter);
  schedule.insert(schedule.end(), inner.begin(), inner.end());
  return schedule;
}

struct ChaosRun {
  std::vector<float> params;
  int ws_end = 0;
  int steps = 0;
  int steps_lost = 0;
  int ranks_lost = 0;
  double recovery_s = 0;
  bool lockstep = false;
};

ChaosRun run_chaos_once(const std::vector<data::Batch>& batches,
                        uint64_t seed) {
  fault::reset();
  fault::install(chaos_schedule(seed));
  train::DataParallelTrainer dp(bench_model(), elastic_cfg(), 4, 7);
  ChaosRun run;
  for (int s = 0; s < 8; ++s) {
    try {
      auto r = dp.train_step(first_n(batches, dp.world_size()));
      ++run.steps;
      run.steps_lost += r.lost_to_fault ? 1 : 0;
      run.ranks_lost += r.ranks_lost;
    } catch (const Error&) {
      // Fault weather only delays or kills; anything thrown is abort
      // fallout and the trainer recovered — retry.
    }
  }
  fault::reset();
  for (const auto& ev : dp.elastic_events()) {
    run.recovery_s = std::max(run.recovery_s, ev.recovery_seconds);
  }
  run.ws_end = dp.world_size();
  run.lockstep = lockstep_ok(dp);
  run.params = param_snapshot(dp);
  return run;
}

Row run_chaos(const std::vector<data::Batch>& batches, uint64_t seed) {
  Row row;
  row.scenario = "chaos";
  row.ws_start = 4;
  ChaosRun a = run_chaos_once(batches, seed);
  ChaosRun b = run_chaos_once(batches, seed);
  row.ws_end = a.ws_end;
  row.steps = a.steps;
  row.steps_lost = a.steps_lost;
  row.ranks_lost = a.ranks_lost;
  row.recovery_s = a.recovery_s;
  row.lockstep = a.lockstep && b.lockstep;
  row.bitwise_replay =
      a.ws_end == b.ws_end && a.ranks_lost == b.ranks_lost &&
      a.params.size() == b.params.size() &&
      std::memcmp(a.params.data(), b.params.data(),
                  sizeof(float) * a.params.size()) == 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_elastic.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check] [--out path]\n", argv[0]);
      return 2;
    }
  }
  uint64_t seed = 2024;
  if (const char* env = std::getenv("SF_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }

  auto batches = make_batches(4);
  std::vector<Row> rows;
  rows.push_back(run_steady(batches));
  rows.push_back(run_kill_shrink(batches));
  rows.push_back(run_shrink_grow(batches));
  rows.push_back(run_chaos(batches, seed));

  std::printf("elastic world-size bench (SF_SEED=%" PRIu64 ")\n\n", seed);
  for (const Row& r : rows) {
    std::printf(
        "%-12s ws %d->%d  steps %2d (lost %s, ranks lost %s)  "
        "step %7s | %7s -> %7s ms  recovery %6s ms  %s%s\n",
        r.scenario.c_str(), r.ws_start, r.ws_end, r.steps,
        show(r.steps_lost).c_str(), show(r.ranks_lost).c_str(),
        show_ms(r.step_s).c_str(), show_ms(r.pre_step_s).c_str(),
        show_ms(r.post_step_s).c_str(), show_ms(r.recovery_s).c_str(),
        r.lockstep ? "lockstep-ok" : "DIVERGED",
        !r.bitwise_replay    ? ""
        : *r.bitwise_replay  ? " replay-bitwise-ok"
                             : " REPLAY-MISMATCH");
  }

  write_json(rows, seed, out_path);
  std::printf("\nwrote %s (%zu rows)\n", out_path.c_str(), rows.size());

  if (check) {
    int failures = 0;
    for (const Row& r : rows) {
      if (!r.lockstep) {
        std::fprintf(stderr, "FAIL: %s lost replica lockstep\n",
                     r.scenario.c_str());
        ++failures;
      }
    }
    const Row& ks = rows[1];
    if (ks.ranks_lost != 1 || ks.ws_end != 3) {
      std::fprintf(stderr, "FAIL: kill_shrink expected ws4 -> ws3, got %d\n",
                   ks.ws_end);
      ++failures;
    }
    if (*ks.steps_lost > 1) {
      std::fprintf(stderr,
                   "FAIL: kill_shrink lost %d steps; only the in-flight "
                   "step may be discarded\n",
                   *ks.steps_lost);
      ++failures;
    }
    if (*ks.recovery_s > 10.0) {
      std::fprintf(stderr,
                   "FAIL: kill recovery latency unbounded (%.2f s)\n",
                   *ks.recovery_s);
      ++failures;
    }
    if (*ks.post_step_s > 3.0 * *ks.pre_step_s) {
      std::fprintf(stderr,
                   "FAIL: post-recovery step time %.2f ms not within 3x of "
                   "pre-kill %.2f ms\n",
                   *ks.post_step_s * 1e3, *ks.pre_step_s * 1e3);
      ++failures;
    }
    const Row& sg = rows[2];
    if (sg.ws_end != 4) {
      std::fprintf(stderr, "FAIL: shrink_grow did not return to ws4\n");
      ++failures;
    }
    const Row& ch = rows[3];
    if (!ch.bitwise_replay.value_or(false)) {
      std::fprintf(stderr,
                   "FAIL: chaos run is not bitwise replayable from seed "
                   "%" PRIu64 "\n",
                   seed);
      ++failures;
    }
    if (failures > 0) return 1;
    std::printf("check passed\n");
  }
  return 0;
}
