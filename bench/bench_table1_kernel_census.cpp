// Table 1 reproduction: breakdown of kernels launched in one AlphaFold
// training step (CPU overhead / math-bounded / memory-bounded /
// memory-operation), reconstructed from the per-module operator templates
// of the paper-scale architecture plus the unfused optimizer's
// per-parameter-tensor kernel storm.
//
// The measured section at the bottom times the real training step: a few
// steady Trainer::train_step calls at the default TrainingSession shapes
// run with tracing on, and each group's share of the `train/step` span is
// summed from the recorded `kernel` spans (GEMM and attention are
// math-bounded; LayerNorm, softmax, bias+GELU, the fused optimizer and
// grad-norm are memory-bounded). Set SCALEFOLD_TRACE_FILE to also dump the
// raw trace.json of those steps.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/session.h"
#include "data/protein_sample.h"
#include "model/alphafold.h"
#include "obs/trace.h"
#include "sim/workload.h"
#include "train/trainer.h"

using namespace sf::sim;

namespace {

constexpr int kWarmupSteps = 2;
constexpr int kTracedSteps = 3;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Table 1 row of a kernel span name; nullptr for a kernel no row claims.
const char* census_group(const std::string& name) {
  if (starts_with(name, "gemm") || starts_with(name, "qkv_gemm") ||
      starts_with(name, "mha_")) {
    return "Math-bounded";
  }
  if (starts_with(name, "ln_") || starts_with(name, "softmax_") ||
      name == "fused_bias_gelu" || name == "fused_adam_swa" ||
      starts_with(name, "grad_norm_")) {
    return "Memory-bounded";
  }
  return nullptr;
}

struct MeasuredCensus {
  double step_us = 0.0;
  std::map<std::string, double> group_us;    ///< by census_group()
  std::map<std::string, int64_t> group_spans;
  double other_kernel_us = 0.0;  ///< kernels no row claims
};

/// Outermost kernel spans on each step's own thread, clipped to the step:
/// a kernel that calls another (qkv_gemm_separate calls gemm) counts once.
MeasuredCensus census_from_trace(const std::vector<sf::obs::TraceEvent>& ev) {
  MeasuredCensus m;
  std::vector<const sf::obs::TraceEvent*> steps, kernels;
  for (const auto& e : ev) {
    if (e.dur_us < 0.0) continue;
    const std::string cat = e.category;
    if (cat == "train" && e.name == "step") steps.push_back(&e);
    if (cat == "kernel") kernels.push_back(&e);
  }
  std::sort(kernels.begin(), kernels.end(),
            [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });
  for (const auto* step : steps) {
    const double lo = step->ts_us, hi = step->ts_us + step->dur_us;
    m.step_us += step->dur_us;
    double open_end = -1.0;
    for (const auto* k : kernels) {
      if (k->track != step->track || k->ts_us < lo || k->ts_us >= hi ||
          k->ts_us < open_end) {
        continue;
      }
      open_end = k->ts_us + k->dur_us;
      const double us = std::min(open_end, hi) - k->ts_us;
      if (const char* g = census_group(k->name)) {
        m.group_us[g] += us;
        ++m.group_spans[g];
      } else {
        m.other_kernel_us += us;
      }
    }
  }
  return m;
}

}  // namespace

int main() {
  CensusBreakdown c = build_census();

  std::printf("=== Table 1: Breakdown of kernels launched per training step ===\n\n");
  std::printf("%-18s | %12s | %12s | %10s | %10s\n", "Kernel Type",
              "Runtime(%) paper", "Runtime(%) ours", "#Calls paper",
              "#Calls ours");
  std::printf("%.90s\n",
              "----------------------------------------------------------------"
              "--------------------------");
  std::printf("%-18s | %16.2f | %15.2f | %10s | %10s\n", "CPU Overhead", 9.10,
              c.runtime_cpu_overhead * 100, "-", "-");
  std::printf("%-18s | %16.2f | %15.2f | %10d | %10lld\n", "Math-bounded",
              24.06, c.runtime_math * 100, 18147,
              static_cast<long long>(c.total.math_calls));
  std::printf("%-18s | %16.2f | %15.2f | %10d | %10lld\n", "Memory-bounded",
              65.03, c.runtime_mem * 100, 97749,
              static_cast<long long>(c.total.mem_calls));
  std::printf("%-18s | %16.2f | %15.2f | %10d | %10lld\n", "Memory-operation",
              1.82, c.runtime_memop * 100, 34991,
              static_cast<long long>(c.total.memop_calls));
  std::printf("\nTotal operators per step: paper >150,000 | ours %lld\n",
              static_cast<long long>(c.total.total()));

  std::printf("\n--- Where the launches come from (ours) ---\n");
  auto row = [](const char* name, const KernelCensus& k) {
    std::printf("%-28s math %6lld | mem %6lld | memop %6lld\n", name,
                static_cast<long long>(k.math_calls),
                static_cast<long long>(k.mem_calls),
                static_cast<long long>(k.memop_calls));
  };
  row("Evoformer trunk (x recycle)", c.trunk);
  row("Structure module + heads", c.serial);
  row("Optimizer/SWA/clip/DDP", c.optimizer);

  std::printf("\n--- Per-module templates (fwd+bwd logical kernels) ---\n");
  row("attention (gated, biased)", census_attention());
  row("layernorm", census_layernorm());
  row("transition", census_transition());
  row("triangle multiply", census_triangle_multiply());
  row("outer product mean", census_outer_product_mean());
  row("one full Evoformer block", census_evoformer_block());

  // ---- Measured: the real training step's kernel spans -----------------
  sf::core::ScaleFoldOptions o;
  o.sync_dims();
  const sf::data::SyntheticProteinDataset dataset(o.dataset);
  sf::model::MiniAlphaFold net(o.model, o.seed);
  sf::train::Trainer trainer(net, o.train);
  const int steps = kWarmupSteps + kTracedSteps;
  for (int i = 0; i < steps; ++i) {
    if (i == kWarmupSteps) {
      sf::obs::set_trace_enabled(true);
      sf::obs::reset();
    }
    trainer.train_step(dataset.prepare_batch(i % dataset.size()));
  }
  const std::vector<sf::obs::TraceEvent> events = sf::obs::snapshot();
  sf::obs::set_trace_enabled(false);
  const MeasuredCensus m = census_from_trace(events);

  std::printf("\n--- Measured census from trace events (%d steady "
              "train_step calls, default session shapes) ---\n",
              kTracedSteps);
  std::printf("%-22s | %15s | %10s\n", "Kernel Type", "Runtime(%) meas",
              "#Spans");
  double in_kernels_us = m.other_kernel_us;
  for (const char* g : {"Math-bounded", "Memory-bounded"}) {
    const auto it = m.group_us.find(g);
    const double us = it == m.group_us.end() ? 0.0 : it->second;
    const auto n = m.group_spans.find(g);
    in_kernels_us += us;
    std::printf("%-22s | %15.2f | %10lld\n", g, 100.0 * us / m.step_us,
                static_cast<long long>(n == m.group_spans.end() ? 0
                                                                : n->second));
  }
  std::printf("%-22s | %15s | %10s\n", "Memory-operation", "not measured",
              "-");
  if (m.other_kernel_us > 0.0) {
    std::printf("%-22s | %15.2f | %10s\n", "Other kernels",
                100.0 * m.other_kernel_us / m.step_us, "-");
  }
  std::printf("%-22s | %15.2f | %10s\n", "In no kernel span",
              100.0 * (m.step_us - in_kernels_us) / m.step_us, "-");
  std::printf("(shares of %.1f ms of train/step spans; no copy/fill span "
              "exists, so memory operations fall in \"no kernel span\", with "
              "elementwise autograd ops, einsums and tape bookkeeping)\n",
              m.step_us * 1e-3);

  if (const char* env = std::getenv("SCALEFOLD_TRACE_FILE");
      env && *env) {
    sf::obs::write_chrome_trace(env);
    std::printf("wrote execution trace to %s\n", env);
  }
  return 0;
}
