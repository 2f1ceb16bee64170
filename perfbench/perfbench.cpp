// perfbench: the end-to-end benchmark of a training step, a DAP-2 step and
// closed-loop serving, with a per-layer breakdown from a separate traced
// run. perfbench/run.py builds this program and is the command to use; the
// README in this directory lists the workloads, metrics and seeds.
//
//   perfbench --workload <train_step|dap2_step|serve_closed> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Every layer is measured from outside the library: the benchmark times calls
// into public functions and reads the spans and sf_obs registry entries the
// library already emits. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is a
// record with provenance and the figures that are not bounded metrics.
//
// Host rules (see README): kernels run on one intra-op thread and no
// workload keeps more than two threads busy, because multi-threaded timing
// on a small shared host is dominated by scheduler and steal noise.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "dap/sharded_stack.h"
#include "data/protein_sample.h"
#include "model/alphafold.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "tensor/allocator.h"
#include "train/trainer.h"

using namespace sf;

namespace {

using Clock = std::chrono::steady_clock;
// Initialised before main() runs, so setup_s counts from process start.
const Clock::time_point g_process_start = Clock::now();
// Wall time main() spends in the benchmark's own calibration loop before
// set-up; setup_s leaves it out, since it tracks the host, not the program.
Clock::duration g_calibration_wall{};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Process start to now, less the calibration loop.
double setup_seconds() {
  return seconds_since(g_process_start) -
         std::chrono::duration<double>(g_calibration_wall).count();
}

/// CPU time of all the process's threads. Time the hypervisor takes
/// away (steal) does not count, so it tells the program's cost apart from
/// the host's.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Aggregate steal ticks ("cpu" line, 8th value) from /proc/stat; -1 when
/// the file is unavailable.
int64_t steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  int64_t v[8] = {0};
  if (!(f >> cpu) || cpu != "cpu") return -1;
  for (int64_t& x : v) {
    if (!(f >> x)) return -1;
  }
  return v[7];
}

/// Ten 96^3 matmuls in a fixed loop owned by the benchmark: its time tells
/// a slow host apart from a slow program. Median of 5, in ms.
double calibration_ms() {
  constexpr int n = 96;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[i] = static_cast<float>(i % 17) * 0.25f;
    b[i] = static_cast<float>(i % 13) * 0.5f;
  }
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    auto t = Clock::now();
    for (int m = 0; m < 10; ++m) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          float acc = 0.0f;
          for (int k = 0; k < n; ++k) acc += a[i * n + k] * b[k * n + j];
          c[i * n + j] = acc;
        }
      }
      a[m] += c[m * 7] * 1e-9f;  // keep every pass observable
    }
    times.push_back(seconds_since(t) * 1e3);
  }
  std::sort(times.begin(), times.end());
  return times[2];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Independent lDDT-Calpha (double precision, written apart from
// model/metrics.cpp): per residue, the share of the {0.5,1,2,4} A
// thresholds that each neighbour's distance error stays within, over
// neighbours closer than 15 A in the target; averaged over residues.
//
// The library rounds distances in float, so a comparison within
// kAmbiguousA of its threshold may go either way there. Such comparisons
// are counted both ways, giving a range the library's value must fall in;
// any real error in the positions moves the score far outside it.
constexpr double kAmbiguousA = 1e-3;

struct LddtRange {
  double lo = 0.0, hi = 0.0;
  bool contains(double v) const { return v >= lo - 1e-6 && v <= hi + 1e-6; }
};

LddtRange reference_lddt(const Tensor& pred, const Tensor& truth,
                         const Tensor& mask) {
  const int64_t r = pred.shape()[0];
  auto d = [](const float* p, int64_t i, int64_t j) {
    double s = 0.0;
    for (int k = 0; k < 3; ++k) {
      const double x = static_cast<double>(p[i * 3 + k]) - p[j * 3 + k];
      s += x * x;
    }
    return std::sqrt(s);
  };
  LddtRange sum;
  int64_t scored = 0;
  for (int64_t i = 0; i < r; ++i) {
    if (mask.at(i) < 0.5f) continue;
    // [lo, hi] hits and pair counts: `sure` pairs are inside the radius
    // beyond doubt, `edge` pairs sit on it and may be in or out.
    int64_t sure = 0, edge = 0;
    int64_t sure_lo = 0, sure_hi = 0, edge_lo = 0, edge_hi = 0;
    for (int64_t j = 0; j < r; ++j) {
      if (j == i || mask.at(j) < 0.5f) continue;
      const double dt = d(truth.data(), i, j);
      if (dt >= 15.0 + kAmbiguousA) continue;
      const double err = std::fabs(d(pred.data(), i, j) - dt);
      int64_t lo = 0, hi = 0;
      for (double thr : {0.5, 1.0, 2.0, 4.0}) {
        lo += err < thr - kAmbiguousA;
        hi += err < thr + kAmbiguousA;
      }
      if (dt > 15.0 - kAmbiguousA) {
        ++edge, edge_lo += lo, edge_hi += hi;
      } else {
        ++sure, sure_lo += lo, sure_hi += hi;
      }
    }
    if (sure + edge == 0) continue;
    auto score = [](int64_t hits, int64_t pairs) {
      return static_cast<double>(hits) / (4.0 * static_cast<double>(pairs));
    };
    const double with_lo = score(sure_lo + edge_lo, sure + edge);
    const double with_hi = score(sure_hi + edge_hi, sure + edge);
    sum.lo += sure > 0 ? std::min(with_lo, score(sure_lo, sure)) : with_lo;
    sum.hi += sure > 0 ? std::max(with_hi, score(sure_hi, sure)) : with_hi;
    ++scored;
  }
  if (scored == 0) return {1.0, 1.0};
  return {sum.lo / static_cast<double>(scored),
          sum.hi / static_cast<double>(scored)};
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Evidence gathered by the workloads, and the checks run on it. Kept apart
// so the self-test can perturb the evidence and show each check failing.

struct TrainEvidence {
  std::vector<float> losses;  ///< every timed step's loss
  Tensor positions, target, mask;
  float program_lddt = 0.0f;
};

std::vector<std::string> check_train(const TrainEvidence& ev) {
  std::vector<std::string> errs;
  for (size_t i = 0; i < ev.losses.size(); ++i) {
    if (!std::isfinite(ev.losses[i])) {
      errs.push_back("step " + std::to_string(i) + " loss is not finite");
      break;
    }
  }
  const LddtRange mine = reference_lddt(ev.positions, ev.target, ev.mask);
  if (!mine.contains(ev.program_lddt)) {
    errs.push_back("lddt mismatch: program " +
                   std::to_string(ev.program_lddt) + " vs reference " +
                   std::to_string(mine.lo) + ".." + std::to_string(mine.hi));
  }
  return errs;
}

struct DapEvidence {
  std::vector<Tensor> sharded_params, reference_params;
};

std::vector<std::string> check_dap(const DapEvidence& ev) {
  if (ev.sharded_params.size() != ev.reference_params.size()) {
    return {"parameter count differs from the unsharded run"};
  }
  for (size_t i = 0; i < ev.sharded_params.size(); ++i) {
    if (!same_bits(ev.sharded_params[i], ev.reference_params[i])) {
      return {"parameter " + std::to_string(i) +
              " differs bitwise from the unsharded run"};
    }
  }
  return {};
}

struct ServeEvidence {
  std::vector<int64_t> admitted_ids;
  std::vector<serve::Response> responses;
  struct Direct {
    int64_t id = -1;
    Tensor positions, target, mask;  ///< direct forward at the bucket crop
  };
  std::vector<Direct> direct;
};

std::vector<std::string> check_serve(const ServeEvidence& ev) {
  std::vector<std::string> errs;
  std::map<int64_t, int> seen;
  std::map<int64_t, const serve::Response*> by_id;
  for (const auto& r : ev.responses) {
    ++seen[r.id];
    by_id[r.id] = &r;
    if (!r.ok) errs.push_back("request " + std::to_string(r.id) + " failed");
  }
  for (int64_t id : ev.admitted_ids) {
    const int n = seen.count(id) ? seen[id] : 0;
    if (n != 1) {
      errs.push_back("request " + std::to_string(id) + " got " +
                     std::to_string(n) + " responses");
    }
  }
  if (seen.size() != ev.admitted_ids.size()) {
    errs.push_back("responses for requests that were never admitted");
  }
  for (const auto& d : ev.direct) {
    auto it = by_id.find(d.id);
    if (it == by_id.end()) continue;  // already reported above
    const serve::Response& r = *it->second;
    if (!same_bits(r.positions, d.positions)) {
      errs.push_back("request " + std::to_string(d.id) +
                     " positions differ from a direct forward");
    }
    const LddtRange mine = reference_lddt(r.positions, d.target, d.mask);
    if (!mine.contains(r.lddt)) {
      errs.push_back("request " + std::to_string(d.id) + " lddt " +
                     std::to_string(r.lddt) + " vs reference " +
                     std::to_string(mine.lo) + ".." + std::to_string(mine.hi));
    }
  }
  return errs;
}

// ---------------------------------------------------------------------------
// Output.

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, double> record;  ///< unbounded figures + provenance

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Trace digestion (traced runs only).

struct Interval {
  double a, b;
};

/// Sorted, disjoint cover of the intervals.
std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  std::vector<Interval> out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.a <= out.back().b) {
      out.back().b = std::max(out.back().b, iv.b);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double union_length(const std::vector<Interval>& v) {
  double total = 0.0;
  for (const auto& iv : merged(v)) total += iv.b - iv.a;
  return total;
}

/// Length of union(a) intersected with union(b).
double overlap_length(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  const auto ma = merged(a), mb = merged(b);
  size_t i = 0, j = 0;
  double total = 0.0;
  while (i < ma.size() && j < mb.size()) {
    const double lo = std::max(ma[i].a, mb[j].a);
    const double hi = std::min(ma[i].b, mb[j].b);
    if (hi > lo) total += hi - lo;
    (ma[i].b < mb[j].b) ? ++i : ++j;
  }
  return total;
}

const char* kernel_group(const std::string& name) {
  if (name.rfind("gemm", 0) == 0 || name.rfind("qkv_gemm", 0) == 0) {
    return "gemm";
  }
  if (name.rfind("mha_", 0) == 0) return "mha";
  if (name.rfind("ln_", 0) == 0) return "layernorm";
  if (name.rfind("softmax_", 0) == 0) return "softmax";
  if (name == "fused_adam_swa" || name.rfind("grad_norm", 0) == 0) {
    return "optimizer";
  }
  return "other";
}

/// Kernel and train-phase figures per unit of work from the recorded
/// spans. `unit_cat`/`unit_name` name the span that bounds one unit (a
/// training step or a served forward).
void digest_trace(const std::vector<obs::TraceEvent>& events, int64_t units,
                  const char* unit_cat, const char* unit_name, Result& out) {
  std::map<std::string, double> kernel_us, train_us;
  int64_t kernel_calls = 0;
  std::vector<Interval> unit_iv;
  std::map<uint32_t, std::vector<const obs::TraceEvent*>> kernels_by_track;
  for (const auto& e : events) {
    if (e.dur_us < 0.0) continue;
    const std::string cat = e.category;
    if (cat == "kernel") {
      kernels_by_track[e.track].push_back(&e);
      ++kernel_calls;
    } else if (cat == "train") {
      train_us[e.name] += e.dur_us;
    }
    if (cat == unit_cat && e.name == unit_name) {
      unit_iv.push_back({e.ts_us, e.ts_us + e.dur_us});
    }
  }
  // Group times count outermost kernel spans only, so a kernel that calls
  // another (naive MHA calls softmax) is not counted twice.
  std::vector<Interval> kernel_iv;
  for (auto& [track, spans] : kernels_by_track) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                return a->ts_us < b->ts_us;
              });
    double open_end = -1.0;
    for (const obs::TraceEvent* e : spans) {
      if (e->ts_us < open_end) continue;
      open_end = e->ts_us + e->dur_us;
      kernel_us[kernel_group(e->name)] += e->dur_us;
      kernel_iv.push_back({e->ts_us, open_end});
    }
  }
  const double per = units > 0 ? 1e-3 / static_cast<double>(units) : 0.0;
  for (const char* g : {"gemm", "mha", "layernorm", "softmax", "optimizer"}) {
    out.metric(std::string("kernels.") + g + "_ms", kernel_us[g] * per, "ms");
  }
  out.metric("kernels.calls_per_step",
             units > 0 ? static_cast<double>(kernel_calls) / units : 0.0,
             "count");
  const double unit_total = union_length(unit_iv);
  out.metric("kernels.coverage",
             unit_total > 0 ? overlap_length(kernel_iv, unit_iv) / unit_total
                            : 0.0,
             "ratio");
  const double fwd = train_us["forward"], bwd = train_us["backward"],
               opt = train_us["optimizer"], step = train_us["step"];
  out.metric("train.forward_ms", fwd * per, "ms");
  out.metric("train.backward_ms", bwd * per, "ms");
  out.metric("train.optimizer_ms", opt * per, "ms");
  out.metric("train.unattributed_ms",
             step > 0 ? std::max(0.0, step - fwd - bwd - opt) * per : 0.0,
             "ms");
}

// ---------------------------------------------------------------------------
// Per-module probes: time forward and backward of the public module calls
// at the workload's shapes, on the model's own weights. Run with tracing
// off and after the timed phase, so they perturb neither.

constexpr int kProbeReps = 5;

void probe(const std::string& name, const std::function<autograd::Var()>& fwd,
           Result& out) {
  std::vector<double> f, b;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    auto t = Clock::now();
    autograd::Var y = fwd();
    f.push_back(seconds_since(t) * 1e3);
    Tensor seed = Tensor::full(y.shape(), 1e-3f);
    t = Clock::now();
    autograd::backward_seeded(y, seed);
    b.push_back(seconds_since(t) * 1e3);
  }
  out.metric("model." + name + ".fwd_ms", median(f), "ms");
  out.metric("model." + name + ".bwd_ms", median(b), "ms");
}

void probe_modules(const model::MiniAlphaFold& net, const data::Batch& batch,
                   Result& out) {
  const model::ModelConfig& cfg = net.config();
  const int64_t s = batch.msa_feat.shape()[0];
  const int64_t r = batch.msa_feat.shape()[1];
  Rng rng(99);
  using autograd::Var;
  const Var msa(Tensor::randn({s, r, cfg.c_m}, rng), true);
  const Var pair(Tensor::randn({r, r, cfg.c_z}, rng), true);
  Tensor add_mask({s, r});
  for (int64_t i = 0; i < s; ++i) {
    for (int64_t j = 0; j < r; ++j) {
      add_mask.at(i * r + j) = batch.residue_mask.at(j) > 0.5f ? 0.0f : -1e9f;
    }
  }
  const model::EvoformerBlock& blk = net.evoformer_blocks().front();
  probe("msa_row_attn", [&] { return blk.row_attn(msa, pair, &add_mask); },
        out);
  probe("msa_col_attn", [&] { return blk.col_attn(msa); }, out);
  probe("msa_transition", [&] { return blk.msa_transition(msa); }, out);
  probe("opm", [&] { return blk.opm(msa); }, out);
  probe("tri_mul_out", [&] { return blk.tri_mul_out(pair); }, out);
  probe("tri_mul_in", [&] { return blk.tri_mul_in(pair); }, out);
  probe("tri_attn_start", [&] { return blk.tri_attn_start(pair); }, out);
  probe("tri_attn_end", [&] { return blk.tri_attn_end(pair); }, out);
  probe("pair_transition", [&] { return blk.pair_transition(pair); }, out);
  probe("structure",
        [&] { return net.structure_module()(msa, pair).positions; }, out);
  const Var positions(Tensor::randn({r, 3}, rng, 0.0f, 5.0f), true);
  probe("loss",
        [&] {
          return model::MiniAlphaFold::structural_loss(
              positions, batch.target_pos, batch.residue_mask);
        },
        out);
}

/// Per-layer metrics a workload does not exercise read 0, so every traced
/// run prints the full per-layer set.
void zero_fill(Result& out, const std::vector<std::string>& names,
               const char* unit) {
  for (const auto& n : names) out.metric(n, 0.0, unit);
}

// ---------------------------------------------------------------------------
// Training workloads (train_step, dap2_step).

constexpr uint64_t kModelSeed = 2024;  ///< TrainingSession's default seed
constexpr int64_t kRecycles = 1;
constexpr int kBatches = 4;            ///< one round = one pass over these
constexpr int kWarmupSteps = 3;        ///< eager, capture, first replay
constexpr int kDapWorld = 2;

/// The DAP layer at the step's shapes: kProbeReps calls of the sharded
/// trunk (world kDapWorld) and their checkpoint-recompute backward. Comm
/// and overlap figures are per call; at one recycle a training step makes
/// one such call. Measured in both training workloads' traced runs.
void probe_dap(dap::ShardedEvoformer& exec, const model::ModelConfig& cfg,
               const data::Batch& batch, Result& out) {
  Rng rng(7);
  const int64_t s = cfg.msa_rows, r = cfg.crop_len;
  const autograd::Var msa(Tensor::randn({s, r, cfg.c_m}, rng), true);
  const autograd::Var pair(Tensor::randn({r, r, cfg.c_z}, rng), true);
  exec.reset_stats();
  const auto comm0 = exec.comm_stats();
  std::vector<double> f, b;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    auto t = Clock::now();
    auto [m, p] = exec.run(msa, pair, batch.residue_mask, nullptr, 0.0f, 0.0f);
    f.push_back(seconds_since(t) * 1e3);
    t = Clock::now();
    autograd::backward_seeded_multi(
        {m, p}, {Tensor::full(m.shape(), 1e-3f), Tensor::full(p.shape(), 1e-3f)});
    b.push_back(seconds_since(t) * 1e3);
  }
  const auto comm = exec.comm_stats();
  const auto st = exec.stats();
  out.metric("dap.comm_mib_per_step",
             static_cast<double>(comm.total_bytes() - comm0.total_bytes()) /
                 kMiB / kProbeReps,
             "MiB");
  out.metric("dap.collectives_per_step",
             static_cast<double>(comm.collectives - comm0.collectives) /
                 kProbeReps,
             "count");
  out.metric("dap.overlap_fraction", st.overlap_fraction(), "ratio");
  out.metric("dap.blocked_wait_ms", st.blocked_wait_s * 1e3 / kProbeReps,
             "ms");
  out.metric("dap.forward_ms", median(f), "ms");
  out.metric("dap.backward_ms", median(b), "ms");
}

struct TrainSetup {
  data::DatasetConfig data;
  model::ModelConfig model;
  train::TrainConfig train;
  std::vector<data::Batch> batches;
};

/// The default TrainingSession shapes (crop 48, 8 MSA rows, c_m 32, c_z 16,
/// 2 Evoformer blocks, extra-MSA and template stacks, 3 structure layers)
/// with a fixed recycle count, capture on and one intra-op thread.
TrainSetup make_train_setup(uint64_t seed, bool dap) {
  TrainSetup ts;
  ts.data.seed = seed;
  ts.model.crop_len = ts.data.crop_len;
  ts.model.msa_rows = ts.data.msa_rows;
  ts.model.msa_feat_dim = data::kMsaFeatDim;
  ts.model.num_aa = data::kNumAminoAcids;
  ts.model.gradient_checkpointing = dap;  // as bench_dap_real runs DAP
  ts.train.min_recycles = kRecycles;
  ts.train.max_recycles = kRecycles;
  ts.train.capture_step = true;
  ts.train.num_threads = 1;
  ts.train.dap_world = dap ? kDapWorld : 0;
  const data::SyntheticProteinDataset dataset(ts.data);
  Rng pick(seed ^ 0x9e3779b97f4a7c15ULL);
  std::set<int64_t> used;
  while (static_cast<int>(ts.batches.size()) < kBatches) {
    const int64_t idx =
        static_cast<int64_t>(pick.uniform_int(static_cast<uint64_t>(dataset.size())));
    if (!used.insert(idx).second) continue;
    ts.batches.push_back(dataset.prepare_batch(idx));
  }
  return ts;
}

std::vector<Tensor> param_values(const model::MiniAlphaFold& net) {
  std::vector<Tensor> out;
  for (const auto& p : net.params().all()) out.push_back(p.value().clone());
  return out;
}

struct TrainRun {
  Result result;
  TrainEvidence train_ev;
  DapEvidence dap_ev;
};

TrainRun run_training(uint64_t seed, double seconds, bool trace, bool dap) {
  TrainRun run;
  Result& out = run.result;
  TrainSetup ts = make_train_setup(seed, dap);
  model::MiniAlphaFold net(ts.model, kModelSeed);
  train::Trainer trainer(net, ts.train);
  out.record["setup_build_s"] = setup_seconds();
  int64_t steps_run = 0;
  for (int w = 0; w < kWarmupSteps; ++w) {
    trainer.train_step(ts.batches[steps_run++ % kBatches]);
  }
  const double setup_s = setup_seconds();

  dap::ShardedEvoformer* exec = trainer.dap_executor();
  if (exec != nullptr) exec->reset_stats();
  const auto cap0 = trainer.capture_stats();
  const auto exec_cap0 =
      exec != nullptr ? exec->stats().capture : graph::StepPlanner::Stats{};
  reset_heap_alloc_peak();
  const int64_t allocs0 = heap_alloc_stats().allocs;
  const double cpu0 = process_cpu_seconds();
  obs::reset();
  obs::set_trace_enabled(trace);

  std::vector<double> step_ms, step_cpu_ms;
  const auto t0 = Clock::now();
  do {
    for (int b = 0; b < kBatches; ++b) {
      const auto t = Clock::now();
      const double c = process_cpu_seconds();
      const train::StepResult r =
          trainer.train_step(ts.batches[steps_run++ % kBatches]);
      step_ms.push_back(seconds_since(t) * 1e3);
      step_cpu_ms.push_back((process_cpu_seconds() - c) * 1e3);
      run.train_ev.losses.push_back(r.loss);
      ++out.attempted;
      if (r.skipped || !std::isfinite(r.loss)) ++out.failed;
    }
  } while (seconds_since(t0) < seconds);

  obs::set_trace_enabled(false);
  const double cpu = process_cpu_seconds() - cpu0;
  const int64_t allocs = heap_alloc_stats().allocs - allocs0;
  const auto cap = trainer.capture_stats();
  const auto exec_cap =
      exec != nullptr ? exec->stats().capture : graph::StepPlanner::Stats{};
  const int64_t arena_bytes = cap.arena_bytes + exec_cap.arena_bytes;
  const double peak_mib =
      static_cast<double>(heap_alloc_stats().peak_bytes + arena_bytes) / kMiB;
  const double n = static_cast<double>(step_ms.size());

  // step_ms is the median CPU time of a step, the step's own cost. On a
  // shared host its wall time also holds whatever the host takes away:
  // steal lands as stalls of 0.4-1.4 s on a share of the steps that varies
  // from run to run. The wall-time figures stay in the record.
  const double step_cpu = median(step_cpu_ms);
  out.record["traced"] = trace ? 1 : 0;
  out.record["step_ms"] = step_cpu;
  out.record["step_wall_p25_ms"] = percentile(step_ms, 0.25);
  out.record["step_wall_p50_ms"] = median(step_ms);
  out.record["step_wall_p90_ms"] = percentile(step_ms, 0.9);
  out.record["step_wall_min_ms"] = percentile(step_ms, 0.0);
  out.record["step_wall_max_ms"] = percentile(step_ms, 1.0);
  out.record["timed_steps"] = n;
  out.record["cpu_ms_per_step"] = cpu * 1e3 / n;

  if (!trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("step_ms", step_cpu, "ms");
    out.metric("peak_heap_mib", peak_mib, "MiB");
  } else {
    digest_trace(obs::snapshot(), static_cast<int64_t>(n), "train", "step",
                 out);
    out.metric("tensor.heap_allocs_per_step", static_cast<double>(allocs) / n,
               "count");
    out.metric("graph.arena_mib", static_cast<double>(arena_bytes) / kMiB,
               "MiB");
    out.metric("graph.divergences",
               static_cast<double>(cap.divergences - cap0.divergences +
                                   exec_cap.divergences -
                                   exec_cap0.divergences),
               "count");
    zero_fill(out,
              {"serve.queue_ms", "serve.featurize_ms", "serve.batch_wait_ms",
               "serve.forward_ms"},
              "ms");
    zero_fill(out, {"serve.batch_size"}, "count");
    zero_fill(out, {"serve.cache_hit_ratio", "serve.padding_ratio"}, "ratio");
    std::vector<double> prep;
    for (const auto& b : ts.batches) prep.push_back(b.prep_seconds * 1e3);
    out.metric("data.prepare_ms", median(prep), "ms");
    out.metric("common.cpu_ms_per_step", cpu * 1e3 / n, "ms");
  }

  // Correctness: a final forward of the trained model, scored by the
  // benchmark's own lDDT against the library's.
  {
    const data::Batch& b = ts.batches[0];
    autograd::NoGradGuard no_grad;
    const model::ModelOutput fo = net.forward(b, kRecycles, true);
    run.train_ev.positions = fo.positions.clone();
    run.train_ev.target = b.target_pos;
    run.train_ev.mask = b.residue_mask;
    run.train_ev.program_lddt = fo.lddt;
  }
  for (auto& e : check_train(run.train_ev)) out.errors.push_back(e);

  if (dap) {
    // The same steps, unsharded and untimed: trained parameters must match
    // bit for bit.
    run.dap_ev.sharded_params = param_values(net);
    train::TrainConfig ref_cfg = ts.train;
    ref_cfg.dap_world = 0;
    ref_cfg.capture_step = false;
    model::MiniAlphaFold ref_net(ts.model, kModelSeed);
    train::Trainer ref_trainer(ref_net, ref_cfg);
    for (int64_t i = 0; i < steps_run; ++i) {
      ref_trainer.train_step(ts.batches[i % kBatches]);
    }
    run.dap_ev.reference_params = param_values(ref_net);
    for (auto& e : check_dap(run.dap_ev)) out.errors.push_back(e);
  }

  if (trace) {
    probe_modules(net, ts.batches[0], out);
    if (exec != nullptr) {
      exec->set_capture(false);
      probe_dap(*exec, ts.model, ts.batches[0], out);
    } else {
      dap::ShardedEvoformer probe_exec(net, kDapWorld);
      probe_dap(probe_exec, ts.model, ts.batches[0], out);
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Closed-loop serving (serve_closed).

// Enough in flight that the pipeline does not drain while a stage waits to
// be scheduled. On a 4-vCPU host under steal, 8 in flight gave 26-69 req/s
// at a steady 28 ms forward; 32 gave 46-65 req/s.
constexpr int kOutstanding = 32;   ///< closed loop: requests in flight
// The repeat share and window are assumptions, not measured traffic: no
// source gives how often serving requests repeat a sequence. They keep the
// cache in use on every run (every repeat hits) while fresh sequences make
// up most of the traffic.
constexpr int kRoundSize = 32;     ///< requests per round
constexpr int kRoundRepeats = 8;   ///< of which repeat an earlier sequence
constexpr int kRepeatWindow = 16;  ///< repeats come from this many recent
constexpr size_t kDirectChecks = 8;  ///< responses checked by direct forward

/// bench_serving's shapes: a smaller model than training, served at four
/// crop buckets below the training crop.
model::ModelConfig serve_model() {
  model::ModelConfig c;
  c.crop_len = 32;
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

/// Fig. 4-shaped lengths (log-normal, median ~15 residues, long tail
/// cropped at the largest bucket), as bench_serving uses; enough samples
/// that fresh requests never run out within a run.
data::DatasetConfig serve_data(uint64_t seed) {
  data::DatasetConfig c;
  c.num_samples = 16384;
  c.crop_len = 32;
  c.msa_rows = 4;
  c.msa_work_cap = 2048;
  c.len_log_mean = 2.7;
  c.len_log_sigma = 0.6;
  c.min_seq_len = 6;
  c.max_seq_len = 200;
  c.seed = seed;
  return c;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig c;
  c.scheduler.bucket_lens = {12, 16, 24, 32};
  c.scheduler.max_batch = 8;
  c.cache.enabled = true;
  // About six rounds of fresh features: the cache fills within the first
  // ~200 requests and evicts from then on, so the heap peak does not grow
  // with run length or throughput, yet it holds the ~2.3 rounds the repeat
  // window reaches back, so every repeat hits.
  c.cache.max_bytes = 4ll << 20;
  c.feature_workers = 1;
  c.model_workers = 1;
  c.num_recycles = 1;
  c.planned_arenas = true;
  return c;
}

/// Requests per bucket in one round: the population share of each bucket
/// under the log-normal length law, rounded by largest remainder. Fixed
/// per round so every seed sends the same bucket mix.
std::vector<int> bucket_quota(const data::DatasetConfig& dc,
                              const std::vector<int64_t>& buckets, int total) {
  auto cdf = [&](double len) {
    return 0.5 * std::erfc(-(std::log(len) - dc.len_log_mean) /
                           (dc.len_log_sigma * std::sqrt(2.0)));
  };
  std::vector<double> share;
  double prev = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double c = i + 1 == buckets.size()
                         ? 1.0
                         : cdf(static_cast<double>(buckets[i]) + 0.5);
    share.push_back(c - prev);
    prev = c;
  }
  std::vector<int> q(buckets.size());
  std::vector<std::pair<double, size_t>> rem;
  int given = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double exact = share[i] * total;
    q[i] = static_cast<int>(exact);
    given += q[i];
    rem.push_back({exact - q[i], i});
  }
  std::sort(rem.rbegin(), rem.rend());
  for (size_t k = 0; given < total; ++k, ++given) ++q[rem[k].second];
  return q;
}

/// Seeded request stream, generated one round at a time.
class RequestStream {
 public:
  RequestStream(const data::SyntheticProteinDataset& ds,
                const serve::BucketScheduler& sched, uint64_t seed)
      : rng_(seed * 0x2545f4914f6cdd1dULL + 1),
        buckets_(sched.config().bucket_lens) {
    for (const auto& m : ds.all_meta()) {
      pool_[sched.bucket_for(m.seq_len)].push_back(m.index);
    }
    for (auto& [b, v] : pool_) shuffle(v);
    fresh_ = bucket_quota(ds.config(), buckets_, kRoundSize - kRoundRepeats);
    repeat_ = bucket_quota(ds.config(), buckets_, kRoundRepeats);
  }

  /// A fresh sample for warm-up; later repeats of its bucket may use it.
  int64_t reserve(int64_t bucket) {
    const int64_t idx = take_fresh(bucket);
    recent_[bucket].push_back(idx);
    return idx;
  }

  std::vector<int64_t> next_round() {
    std::vector<std::pair<int64_t, bool>> picks;  // (bucket, repeat)
    for (size_t i = 0; i < buckets_.size(); ++i) {
      for (int k = 0; k < fresh_[i]; ++k) picks.push_back({buckets_[i], false});
      for (int k = 0; k < repeat_[i]; ++k) picks.push_back({buckets_[i], true});
    }
    shuffle(picks);
    std::vector<int64_t> round;
    for (auto [bucket, repeat] : picks) {
      auto& recent = recent_[bucket];
      int64_t idx;
      if (repeat) {
        const size_t lo =
            recent.size() > kRepeatWindow ? recent.size() - kRepeatWindow : 0;
        idx = recent[lo + rng_.uniform_int(recent.size() - lo)];
      } else {
        idx = take_fresh(bucket);
      }
      recent.push_back(idx);
      round.push_back(idx);
    }
    return round;
  }

 private:
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng_.uniform_int(i)]);
    }
  }
  int64_t take_fresh(int64_t bucket) {
    auto& v = pool_.at(bucket);
    size_t& next = next_[bucket];
    SF_CHECK(next < v.size()) << "fresh samples exhausted in bucket" << bucket;
    return v[next++];
  }

  Rng rng_;
  std::vector<int64_t> buckets_;
  std::map<int64_t, std::vector<int64_t>> pool_, recent_;
  std::map<int64_t, size_t> next_;
  std::vector<int> fresh_, repeat_;
};

struct ServeRun {
  Result result;
  ServeEvidence ev;
};

ServeRun run_serving(uint64_t seed, double seconds, bool trace) {
  ServeRun run;
  Result& out = run.result;
  const data::DatasetConfig dc = serve_data(seed);
  const model::ModelConfig mc = serve_model();
  const serve::ServeConfig sc = serve_config();
  const data::SyntheticProteinDataset dataset(dc);
  const serve::BucketScheduler sched(sc.scheduler);
  RequestStream stream(dataset, sched, seed);
  serve::Service svc(sc, dc, mc);
  out.record["setup_build_s"] = setup_seconds();

  // Warm-up: per bucket one eager forward, one capture, one replay. The
  // model worker takes them in order whichever way they arrive, so they are
  // sent together rather than as twelve round trips between threads.
  for (int64_t bucket : sc.scheduler.bucket_lens) {
    const int64_t idx = stream.reserve(bucket);
    for (int k = 0; k < 3; ++k) svc.submit(idx);
  }
  svc.wait_all();
  const double setup_s = setup_seconds();

  const auto st0 = svc.stats();
  reset_heap_alloc_peak();
  const int64_t allocs0 = heap_alloc_stats().allocs;
  const double cpu0 = process_cpu_seconds();
  obs::reset();
  obs::set_trace_enabled(trace);

  Rng pick(seed + 17);
  std::vector<size_t> sample;  // indices into run.ev.responses

  // Closed loop: kOutstanding requests in flight, whole rounds only. A
  // round's window runs from the previous round's last response to its
  // own; throughput is the median rate over windows.
  std::vector<int64_t> round;
  std::map<int64_t, int64_t> round_of;  // request id -> round number
  std::vector<int64_t> round_done;      // responses per round so far
  std::vector<double> round_rate;
  size_t next = 0;
  bool submitting = true;
  int64_t in_flight = 0;
  double t_prev_round = 0.0;
  const auto t0 = Clock::now();
  for (;;) {
    while (submitting && in_flight < kOutstanding) {
      if (next == round.size()) {
        if (seconds_since(t0) >= seconds && !round.empty()) {
          submitting = false;
          break;
        }
        round = stream.next_round();
        round_done.push_back(0);
        next = 0;
      }
      const int64_t id = svc.submit(round[next++]);
      round_of[id] = static_cast<int64_t>(round_done.size()) - 1;
      run.ev.admitted_ids.push_back(id);
      ++in_flight;
      ++out.attempted;
    }
    auto got = svc.drain();
    if (got.empty()) {
      if (!submitting && in_flight == 0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    const double now = seconds_since(t0);
    in_flight -= static_cast<int64_t>(got.size());
    for (auto& r : got) {
      auto it = round_of.find(r.id);
      if (it != round_of.end() && ++round_done[it->second] == kRoundSize) {
        round_rate.push_back(kRoundSize / (now - t_prev_round));
        t_prev_round = now;
      }
      // Positions are kept only for a seeded reservoir sample of responses,
      // the ones checked against a direct forward; the rest are released at
      // once, so the heap peak does not grow with requests per run.
      const size_t k = run.ev.responses.size();
      if (k < kDirectChecks) {
        sample.push_back(k);
      } else if (const size_t j = pick.uniform_int(k + 1); j < kDirectChecks) {
        run.ev.responses[sample[j]].positions = Tensor();
        sample[j] = k;
      } else {
        r.positions = Tensor();
      }
      run.ev.responses.push_back(std::move(r));
    }
  }
  obs::set_trace_enabled(false);
  const double cpu = process_cpu_seconds() - cpu0;
  const int64_t allocs = heap_alloc_stats().allocs - allocs0;
  const auto st = svc.stats();
  const double peak_mib = static_cast<double>(heap_alloc_stats().peak_bytes +
                                              st.plan_arena_bytes) /
                          kMiB;

  // step_ms is taken at the largest bucket only: the forward time over the
  // whole mix jumps between bucket costs near its median.
  const int64_t top_bucket = sc.scheduler.bucket_lens.back();
  std::vector<double> total_ms, fwd_ms, top_fwd_ms, queue_ms, feat_ms,
      wait_ms, miss_feat_ms;
  double real_res = 0.0, bucket_res = 0.0;
  int64_t hits = 0;
  for (const auto& r : run.ev.responses) {
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    total_ms.push_back(r.total_s * 1e3);
    fwd_ms.push_back(r.forward_s * 1e3);
    if (r.bucket_len == top_bucket) top_fwd_ms.push_back(r.forward_s * 1e3);
    queue_ms.push_back(r.queue_s * 1e3);
    feat_ms.push_back(r.featurize_s * 1e3);
    wait_ms.push_back(r.batch_wait_s * 1e3);
    if (r.cache_hit) {
      ++hits;
    } else {
      miss_feat_ms.push_back(r.featurize_s * 1e3);
    }
    real_res += static_cast<double>(
        std::min(dataset.meta(r.sample_index).seq_len, r.bucket_len));
    bucket_res += static_cast<double>(r.bucket_len);
  }
  const double n = static_cast<double>(total_ms.size());

  out.record["traced"] = trace ? 1 : 0;
  out.record["requests"] = n;
  out.record["step_ms"] = median(top_fwd_ms);
  out.record["requests_per_s"] = median(round_rate);
  out.record["latency_p50_ms"] = median(total_ms);
  out.record["latency_p90_ms"] = percentile(total_ms, 0.9);
  out.record["latency_p99_ms"] = percentile(total_ms, 0.99);
  out.record["step_p90_ms"] = percentile(fwd_ms, 0.9);
  out.record["cpu_ms_per_request"] = n > 0 ? cpu * 1e3 / n : 0.0;

  if (!trace) {
    out.metric("setup_s", setup_s, "s");
    out.metric("step_ms", median(top_fwd_ms), "ms");
    out.metric("peak_heap_mib", peak_mib, "MiB");
  } else {
    digest_trace(obs::snapshot(), static_cast<int64_t>(n), "serve", "forward",
                 out);
    out.metric("tensor.heap_allocs_per_step",
               n > 0 ? static_cast<double>(allocs) / n : 0.0, "count");
    out.metric("graph.arena_mib",
               static_cast<double>(st.plan_arena_bytes) / kMiB, "MiB");
    out.metric("graph.divergences",
               static_cast<double>(st.plan_divergences - st0.plan_divergences),
               "count");
    out.metric("dap.comm_mib_per_step", 0.0, "MiB");
    out.metric("dap.collectives_per_step", 0.0, "count");
    out.metric("dap.overlap_fraction", 0.0, "ratio");
    zero_fill(out, {"dap.blocked_wait_ms", "dap.forward_ms", "dap.backward_ms"},
              "ms");
    out.metric("serve.queue_ms", median(queue_ms), "ms");
    out.metric("serve.featurize_ms", median(feat_ms), "ms");
    out.metric("serve.batch_wait_ms", median(wait_ms), "ms");
    out.metric("serve.forward_ms", median(fwd_ms), "ms");
    const int64_t batches = st.batches_dispatched - st0.batches_dispatched;
    out.metric("serve.batch_size",
               batches > 0 ? static_cast<double>(st.requests_dispatched -
                                                 st0.requests_dispatched) /
                                 batches
                           : 0.0,
               "count");
    out.metric("serve.cache_hit_ratio", n > 0 ? hits / n : 0.0, "ratio");
    out.metric("serve.padding_ratio",
               bucket_res > 0 ? real_res / bucket_res : 0.0, "ratio");
    out.metric("data.prepare_ms", median(miss_feat_ms), "ms");
    out.metric("common.cpu_ms_per_step", n > 0 ? cpu * 1e3 / n : 0.0, "ms");
  }

  // Correctness: a seeded sample of responses against direct forwards of
  // a model with the replicas' weights at the same bucket crop.
  {
    std::map<int64_t, std::unique_ptr<model::MiniAlphaFold>> nets;
    for (size_t i : sample) {
      const serve::Response& r = run.ev.responses[i];
      if (!r.ok) continue;
      auto& net = nets[r.bucket_len];
      if (!net) {
        net = std::make_unique<model::MiniAlphaFold>(mc.with_crop(r.bucket_len),
                                                     sc.model_seed);
      }
      const data::Batch b = dataset.prepare_batch(r.sample_index, r.bucket_len);
      autograd::NoGradGuard no_grad;
      const model::ModelOutput fo = net->forward(b, sc.num_recycles, true);
      run.ev.direct.push_back({r.id, fo.positions.clone(), b.target_pos,
                               b.residue_mask});
    }
  }
  for (auto& e : check_serve(run.ev)) out.errors.push_back(e);
  out.record["direct_checks"] = static_cast<double>(run.ev.direct.size());

  if (trace) {
    const int64_t top = sc.scheduler.bucket_lens.back();
    model::MiniAlphaFold net(mc.with_crop(top), sc.model_seed);
    probe_modules(net, dataset.prepare_batch(0, top), out);
  }
  return run;
}

// ---------------------------------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&](const char* what, bool ok) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };

  {
    TrainRun tr = run_training(11, 0.0, false, false);
    expect("train_step checks pass on real output",
           check_train(tr.train_ev).empty());
    TrainEvidence shifted = tr.train_ev;
    shifted.positions = shifted.positions.clone();
    for (int k = 0; k < 3; ++k) shifted.positions.at(k) += 3.0f;
    expect("train_step lddt check rejects a shifted residue",
           !check_train(shifted).empty());
    TrainEvidence nan_loss = tr.train_ev;
    nan_loss.losses.back() = std::nanf("");
    expect("train_step loss check rejects a non-finite loss",
           !check_train(nan_loss).empty());
  }
  {
    TrainRun tr = run_training(12, 0.0, false, true);
    expect("dap2_step checks pass on real output",
           check_dap(tr.dap_ev).empty() && tr.result.errors.empty());
    DapEvidence flipped = tr.dap_ev;
    Tensor& p = flipped.sharded_params.back();
    p = p.clone();
    uint32_t bits;
    std::memcpy(&bits, p.data(), sizeof(bits));
    bits ^= 1u;
    std::memcpy(p.data(), &bits, sizeof(bits));
    expect("dap2_step bitwise check rejects one flipped parameter bit",
           !check_dap(flipped).empty());
  }
  {
    ServeRun sr = run_serving(13, 0.0, false);
    expect("serve_closed checks pass on real output",
           check_serve(sr.ev).empty() && !sr.ev.direct.empty());
    ServeEvidence dropped = sr.ev;
    dropped.responses.pop_back();
    expect("serve_closed exactly-once check rejects a dropped response",
           !check_serve(dropped).empty());
    ServeEvidence dup = sr.ev;
    dup.responses.push_back(dup.responses.front());
    expect("serve_closed exactly-once check rejects a duplicated response",
           !check_serve(dup).empty());
    ServeEvidence shifted = sr.ev;
    for (auto& r : shifted.responses) {
      if (r.id != shifted.direct.front().id) continue;
      r.positions = r.positions.clone();
      for (int64_t k = 0; k < r.positions.numel(); ++k) {
        r.positions.at(k) += 0.5f;
      }
    }
    expect("serve_closed positions check rejects shifted positions",
           !check_serve(shifted).empty());
    ServeEvidence one_res = sr.ev;
    for (auto& r : one_res.responses) {
      if (r.id != one_res.direct.front().id) continue;
      r.positions = r.positions.clone();
      for (int k = 0; k < 3; ++k) r.positions.at(k) += 3.0f;
    }
    // Also replace the direct reference so only the lDDT check can see it.
    for (auto& d : one_res.direct) {
      if (d.id != one_res.direct.front().id) continue;
      for (const auto& r : one_res.responses) {
        if (r.id == d.id) d.positions = r.positions;
      }
    }
    expect("serve_closed lddt check rejects a moved residue",
           !check_serve(one_res).empty());
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (a == "--selftest") {
      workload = "selftest";
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  sf::set_num_threads(1);
  obs::set_trace_enabled(false);
  if (workload == "selftest") return selftest();

  const int64_t steal0 = steal_ticks();
  const auto calib_start = Clock::now();
  const double calib_before = calibration_ms();
  g_calibration_wall = Clock::now() - calib_start;
  Result out;
  int busy_threads = 1;
  try {
    if (workload == "train_step") {
      out = run_training(seed, seconds, trace != 0, false).result;
    } else if (workload == "dap2_step") {
      out = run_training(seed, seconds, trace != 0, true).result;
      busy_threads = kDapWorld;
    } else if (workload == "serve_closed") {
      out = run_serving(seed, seconds, trace != 0).result;
      busy_threads = 2;
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  const double calib_after = calibration_ms();
  const int64_t steal1 = steal_ticks();

  for (const auto& e : out.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": " << json_string(workload)
      << ", \"seed\": " << seed << ", \"seconds\": " << json_number(seconds)
      << ", \"steal_ticks\": "
      << (steal0 >= 0 && steal1 >= 0 ? std::to_string(steal1 - steal0)
                                     : std::string("null"))
      << ", \"calibration_ms_before\": " << json_number(calib_before)
      << ", \"calibration_ms_after\": " << json_number(calib_after)
      << ", \"intra_op_threads\": " << sf::num_threads()
      << ", \"busy_threads\": " << busy_threads
      << ", \"hw_threads\": " << std::thread::hardware_concurrency()
      << ", \"simd_tier\": " << json_string(simd::tier_name(simd::active_tier()))
      << ", \"check_errors\": " << out.errors.size();
  for (const auto& [k, v] : out.record) {
    rec << ", " << json_string(k) << ": " << json_number(v);
  }
  rec << "}}";
  std::printf("%s\n", rec.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (out.errors.empty() ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    res << (i ? ", " : "") << json_string(name) << ": {\"value\": "
        << json_number(vu.first) << ", \"unit\": " << json_string(vu.second)
        << "}";
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  return 0;
}
