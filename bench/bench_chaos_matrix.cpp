// Nightly chaos matrix: the DESIGN.md §10 fault-site table, swept over
// many seeds.
//
// Per seed, four legs — together they hit every injection site the tree
// defines:
//
//   ddp        — elastic DataParallelTrainer at ws4 under a seeded kill on
//                ddp.rank_step plus delay-only jitter on ddp.bucket_launch,
//                ddp.bucket_wait and dap.async_reduce; after the kill the
//                world is regrown to 4 *while the jitter is still armed*
//                (grow-under-fire) and must end in bit-exact replica
//                lockstep.
//   dap        — blocking collectives (dap.all_gather, dap.all_reduce)
//                plus the chunked async transpose (dap.transpose_launch,
//                dap.transpose_wait) under mixed weather (kills, throws,
//                delays): a dying rank aborts the communicator, survivors
//                must throw in bounded time, and after recover() a clean
//                round must produce correct sums and a bit-exact
//                transpose round trip.
//   loader     — PrefetchLoader under transient loader.prep failures and a
//                loader.worker.kill: every batch still delivered exactly
//                once.
//   checkpoint — CheckpointManager saves with checkpoint.write crashing a
//                seeded subset of writes: load_latest must return the
//                newest checkpoint that actually survived.
//
// The per-commit lane runs the single-seed equivalents (bench_elastic,
// tier-1 tests); this matrix is the nightly widening of the same gates.
// Seeds are base_seed .. base_seed + N - 1 with base_seed from SF_SEED
// (default 2024) and N from SF_CHAOS_SEEDS (default 16, min 16 in
// --check).
//
// Output: BENCH_chaos_matrix.json (override with --out <path>).
// --check: exit non-zero if any leg of any seed fails its invariant.
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "dap/communicator.h"
#include "dap/sharded_stack.h"
#include "data/loader.h"
#include "data/protein_sample.h"
#include "train/checkpoint.h"
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
  c.evoformer_blocks = 1;
  c.use_extra_msa_stack = false;
  c.use_template_stack = false;
  c.opm_dim = 4;
  c.transition_factor = 2;
  c.structure_layers = 1;
  return c;
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

struct LegResult {
  std::string leg;
  uint64_t seed = 0;
  bool ok = false;
  std::string detail;
};

// ---- leg: elastic DDP with grow-under-fire ---------------------------------

LegResult run_ddp_leg(const std::vector<data::Batch>& batches,
                      uint64_t seed) {
  LegResult res;
  res.leg = "ddp";
  res.seed = seed;
  fault::reset();

  // Exactly one rank kill, timed by the seed: ddp.rank_step is hit once
  // per rank per step, so skip_hits in [0, 11] lands the kill somewhere
  // in the first four steps.
  fault::SiteConfig kill;
  kill.kill = true;
  kill.max_fires = 1;
  kill.skip_hits = static_cast<int64_t>(seed % 12);
  fault::arm("ddp.rank_step", kill);

  // Timing-only jitter on the gradient-overlap machinery; stays armed
  // through the regrow (the "under fire" part). Delays cannot change bits.
  fault::ChaosOptions jitter;
  jitter.seed = seed;
  jitter.mean_probability = 0.1;
  jitter.kill_fraction = 0.0;
  jitter.delay_fraction = 1.0;
  jitter.max_delay_seconds = 1e-3;
  jitter.max_fires_per_site = 16;
  jitter.max_skip_hits = 4;
  fault::install(fault::random_schedule(
      {"ddp.bucket_launch", "ddp.bucket_wait", "dap.async_reduce"}, jitter));

  train::TrainConfig tc;
  tc.base_lr = 1e-3f;
  tc.warmup_steps = 0;
  tc.min_recycles = 1;
  tc.max_recycles = 1;
  tc.opt.clip_norm = 5.0f;
  tc.overlap_grad_comm = true;
  tc.elastic_world = true;
  train::DataParallelTrainer dp(bench_model(), tc, 4, 7);

  auto step_n = [&](int steps) {
    for (int s = 0; s < steps; ++s) {
      try {
        dp.train_step({batches.data(),
                       static_cast<size_t>(dp.world_size())});
      } catch (const Error&) {
        // Abort fallout from the injected kill; the trainer recovered.
      }
    }
  };
  step_n(4);  // the kill lands in here; world shrinks to 3
  const int ws_after_kill = dp.world_size();
  fault::disarm("ddp.rank_step");
  dp.grow_to(4);  // regrow with the comm jitter still armed
  step_n(2);
  fault::reset();

  bool lockstep = true;
  for (int r = 1; r < dp.world_size(); ++r) {
    if (dp.replica_divergence(r) != 0.0f) lockstep = false;
  }
  res.ok = ws_after_kill == 3 && dp.world_size() == 4 && lockstep;
  res.detail = "ws_after_kill=" + std::to_string(ws_after_kill) +
               " ws_end=" + std::to_string(dp.world_size()) +
               (lockstep ? " lockstep" : " DIVERGED");
  return res;
}

// ---- leg: blocking DAP collectives under mixed weather ---------------------

void run_ranks(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int r = 0; r < n; ++r) threads.emplace_back(fn, r);
  for (auto& t : threads) t.join();
}

LegResult run_dap_leg(uint64_t seed) {
  LegResult res;
  res.leg = "dap";
  res.seed = seed;
  const int n = 4;
  fault::reset();
  fault::ChaosOptions weather;
  weather.seed = seed ^ 0xdabbad00ULL;
  weather.mean_probability = 0.15;
  weather.kill_fraction = 0.3;   // some sites kill the hitting rank
  weather.delay_fraction = 0.4;  // some only delay; the rest throw
  weather.max_delay_seconds = 1e-3;
  weather.max_fires_per_site = 2;
  weather.max_skip_hits = 8;
  fault::install(fault::random_schedule(
      {"dap.all_gather", "dap.all_reduce", "dap.transpose_launch",
       "dap.transpose_wait"},
      weather));

  dap::Communicator comm(n);
  // This rank's [A/n, B, C] shard of a tiny [4, 4, 2] tensor, for the
  // chunked async-transpose round (divisible by n on both axes).
  auto make_shard = [n](int rank) {
    Tensor shard({4 / n, 4, 2});
    for (int64_t i = 0; i < shard.numel(); ++i) {
      shard.at(i) = static_cast<float>(rank * 1000 + i);
    }
    return shard;
  };
  std::atomic<int> aborted_rounds{0};
  auto one_round = [&](bool* clean) {
    std::atomic<bool> failed{false};
    run_ranks(n, [&](int rank) {
      try {
        std::vector<float> buf(8, 1.0f);
        comm.all_reduce_sum(rank, buf);
        std::vector<float> chunk(2, static_cast<float>(rank));
        std::vector<float> gathered(2 * n);
        comm.all_gather(rank, chunk, gathered);
        // Chunked async transpose there-and-back: hits the
        // dap.transpose_launch / dap.transpose_wait sites.
        dap::AsyncTransposer tr(comm, rank, /*full_a=*/4, /*full_b=*/4,
                                /*c=*/2, /*num_chunks=*/2,
                                /*tag_base=*/9000);
        tr.launch(make_shard(rank));
        for (int64_t t = 0; t < tr.num_chunks(); ++t) {
          tr.launch_back(t, tr.wait_chunk(t));
        }
        Tensor back({4 / n, 4, 2});
        tr.collect_back(back);
      } catch (const fault::WorkerKill&) {
        comm.abort("injected rank death");  // wake abandoned peers
        failed.store(true);
      } catch (const fault::InjectedFault&) {
        // A transient throw also abandons the rendezvous: without an
        // abort the peers would park forever waiting for this rank.
        comm.abort("injected transient fault");
        failed.store(true);
      } catch (const Error&) {
        failed.store(true);  // survivor woken out of the rendezvous
      }
    });
    if (failed.load()) {
      comm.recover();
      aborted_rounds.fetch_add(1);
      *clean = false;
    } else {
      *clean = true;
    }
  };

  for (int round = 0; round < 6; ++round) {
    bool clean = false;
    one_round(&clean);
  }
  fault::reset();

  // Weather gone: a final round must run clean — correct sums, and an
  // untouched transpose there-and-back must be the bit-exact identity.
  std::vector<std::vector<float>> bufs(n, std::vector<float>(8, 1.0f));
  std::atomic<bool> wrong{false};
  run_ranks(n, [&](int rank) {
    comm.all_reduce_sum(rank, bufs[rank]);
    for (float v : bufs[rank]) {
      if (v != static_cast<float>(n)) wrong.store(true);
    }
    const Tensor shard = make_shard(rank);
    dap::AsyncTransposer tr(comm, rank, 4, 4, 2, 2, /*tag_base=*/11000);
    tr.launch(shard);
    for (int64_t t = 0; t < tr.num_chunks(); ++t) {
      tr.launch_back(t, tr.wait_chunk(t));
    }
    Tensor back({4 / n, 4, 2});
    tr.collect_back(back);
    if (std::memcmp(back.data(), shard.data(),
                    shard.numel() * sizeof(float)) != 0) {
      wrong.store(true);
    }
  });
  res.ok = !wrong.load();
  res.detail = "aborted_rounds=" + std::to_string(aborted_rounds.load()) +
               (wrong.load() ? " WRONG-SUM" : " clean-round-ok");
  return res;
}

// ---- leg: prefetch loader under prep faults + a worker kill ----------------

LegResult run_loader_leg(uint64_t seed) {
  LegResult res;
  res.leg = "loader";
  res.seed = seed;
  fault::reset();
  fault::SiteConfig prep;
  prep.probability = 0.2;
  prep.max_fires = -1;
  prep.seed = seed ^ 0x10adULL;
  fault::arm("loader.prep", prep);
  fault::SiteConfig kill;
  kill.kill = true;
  kill.skip_hits = static_cast<int64_t>(seed % 10);
  fault::arm("loader.worker.kill", kill);

  data::DatasetConfig dcfg;
  dcfg.num_samples = 32;
  dcfg.crop_len = 16;
  dcfg.msa_rows = 4;
  dcfg.msa_work_cap = 64;
  dcfg.seed = 31;
  data::SyntheticProteinDataset ds(dcfg);

  data::LoaderConfig lc;
  lc.num_workers = 3;
  lc.max_in_flight = 6;
  lc.policy = data::YieldPolicy::kReadyFirst;
  lc.max_retries = 10;
  lc.retry_backoff_seconds = 1e-4;
  lc.prep_timeout_seconds = 0.25;
  const int64_t nb = 32;
  data::PrefetchLoader loader(
      [&ds](int64_t i) { return ds.prepare_batch(i); }, nb, lc);

  std::set<int64_t> got;
  bool dup = false;
  try {
    while (loader.has_next()) {
      if (!got.insert(loader.next().index).second) dup = true;
    }
  } catch (const Error& e) {
    res.detail = std::string("loader error: ") + e.what();
    fault::reset();
    return res;
  }
  fault::reset();
  const auto st = loader.stats_snapshot();
  res.ok = !dup && got.size() == static_cast<size_t>(nb);
  res.detail = "delivered=" + std::to_string(got.size()) +
               " retries=" + std::to_string(st.retries) +
               " deaths=" + std::to_string(st.worker_deaths) +
               (dup ? " DUPLICATE" : "");
  return res;
}

// ---- leg: checkpoint writes crashing mid-save ------------------------------

LegResult run_checkpoint_leg(uint64_t seed) {
  LegResult res;
  res.leg = "checkpoint";
  res.seed = seed;
  fault::reset();
  namespace fs = std::filesystem;
  const std::string dir =
      "/tmp/scalefold_chaos_ckpt_" + std::to_string(seed);
  fs::remove_all(dir);

  // Exactly two of the five saves crash after payload write, before the
  // rename makes them durable; which two is seed-pinned.
  fault::SiteConfig crash;
  crash.max_fires = 2;
  crash.skip_hits = static_cast<int64_t>(seed % 4);
  fault::arm("checkpoint.write", crash);

  train::CheckpointManager mgr(dir, /*keep_last=*/5);
  int64_t newest_durable = -1;
  for (int64_t step = 1; step <= 5; ++step) {
    std::map<std::string, Tensor> t;
    t["w"] = Tensor({4});
    for (int64_t i = 0; i < 4; ++i) {
      t["w"].at(i) = static_cast<float>(step * 10 + i);
    }
    try {
      mgr.save(step, t);
      newest_durable = step;
    } catch (const fault::InjectedFault&) {
      // Crashed mid-save: this step must not become loadable.
    }
  }
  fault::reset();

  std::map<std::string, Tensor> loaded;
  const int64_t got = mgr.load_latest(loaded);
  bool content_ok = got == newest_durable && loaded.count("w") > 0;
  if (content_ok) {
    for (int64_t i = 0; i < 4; ++i) {
      if (loaded["w"].at(i) != static_cast<float>(got * 10 + i)) {
        content_ok = false;
      }
    }
  }
  res.ok = content_ok;
  res.detail = "newest_durable=" + std::to_string(newest_durable) +
               " loaded=" + std::to_string(got);
  fs::remove_all(dir);
  return res;
}

void write_json(const std::vector<LegResult>& rows, uint64_t base_seed,
                int n_seeds, const std::string& path) {
  int failed = 0;
  for (const auto& r : rows) failed += r.ok ? 0 : 1;
  std::ofstream f(path);
  f << "{\n  \"base_seed\": " << base_seed << ", \"seeds\": " << n_seeds
    << ", \"legs_total\": " << rows.size() << ", \"legs_failed\": " << failed
    << ",\n  \"legs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const LegResult& r = rows[i];
    f << "    {\"leg\": \"" << r.leg << "\", \"seed\": " << r.seed
      << ", \"ok\": " << (r.ok ? "true" : "false") << ", \"detail\": \""
      << r.detail << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_chaos_matrix.json";
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
  uint64_t base_seed = 2024;
  if (const char* env = std::getenv("SF_SEED")) {
    base_seed = std::strtoull(env, nullptr, 10);
  }
  int n_seeds = 16;
  if (const char* env = std::getenv("SF_CHAOS_SEEDS")) {
    n_seeds = std::atoi(env);
  }
  if (check && n_seeds < 16) {
    std::fprintf(stderr, "--check requires >= 16 seeds (got %d)\n", n_seeds);
    return 2;
  }

  auto batches = make_batches(4);
  std::vector<LegResult> rows;
  std::printf("chaos matrix: %d seeds from %" PRIu64 "\n\n", n_seeds,
              base_seed);
  for (int s = 0; s < n_seeds; ++s) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(s);
    for (auto leg : {&run_loader_leg, &run_dap_leg, &run_checkpoint_leg}) {
      rows.push_back(leg(seed));
    }
    rows.push_back(run_ddp_leg(batches, seed));
    const size_t base = rows.size() - 4;
    for (size_t i = base; i < rows.size(); ++i) {
      const LegResult& r = rows[i];
      std::printf("seed %-6" PRIu64 " %-10s %-4s %s\n", r.seed,
                  r.leg.c_str(), r.ok ? "ok" : "FAIL", r.detail.c_str());
    }
  }

  write_json(rows, base_seed, n_seeds, out_path);
  int failed = 0;
  for (const auto& r : rows) failed += r.ok ? 0 : 1;
  std::printf("\n%zu legs, %d failed; wrote %s\n", rows.size(), failed,
              out_path.c_str());
  if (check && failed > 0) return 1;
  if (check) std::printf("check passed\n");
  return 0;
}
