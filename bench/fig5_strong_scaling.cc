// Reproduces Figure 5: wall time per timestep when strong-scaling every
// Table III problem from its smallest CG count to 128 CGs, for the four
// CPE-offload variants (host.sync is excluded, as in the paper).
//
// From the same cached sweep it also reproduces:
//   * Table V: strong-scaling efficiency from each problem's least CG
//     count to 128 CGs. Paper range 31.7% (16x16x512, simd.async) to
//     97.7% (128x128x512, acc.sync).
//   * Tables VI and VII: the performance improvement of the asynchronous
//     scheduler over the synchronous one, (T_sync - T_async) / T_async,
//     per problem and CG count, for the non-vectorized (Table VI) and
//     vectorized (Table VII) kernels. Paper headline numbers: best
//     improvement 39.3% (non-vectorized) and 22.8% (vectorized); average
//     13.5%; medium problems gain the most; the paper's 128-CG slowdowns
//     are a machine anomaly we do not model. The average and best gains
//     land in the JSON report as scalars.
//   * Figures 9 and 10: achieved floating-point performance (Gflop/s,
//     counted with the modeled CPE performance counters) and its fraction
//     of the running CGs' theoretical peak, for acc_simd.async. Paper:
//     974.5 Gflop/s at 128 CGs on the largest problem (1.0% of peak); best
//     efficiency 1.17% (64x64x512 at 2 CGs).
//
// Options:
//   --backend=serial|threads --backend-threads=N
//       CPE execution backend for the sweep. The reported (virtual)
//       numbers are identical either way; threads shortens the bench's
//       own host wall-clock on multi-core machines.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "hw/machine_params.h"
#include "json_report.h"
#include "runtime/problem.h"
#include "runtime/variant.h"
#include "support/options.h"
#include "support/table.h"
#include "sweep.h"

namespace {

/// Prints Table V from the already-run sweep.
void scaling_table(usw::bench::Sweep& sweep,
                   const std::vector<std::string>& variants) {
  using namespace usw;
  TextTable table("Table V: strong scaling efficiency (least CGs -> 128 CGs)");
  table.set_header(
      {"Problem", "acc.sync", "acc.async", "simd.sync", "simd.async"});
  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    const int n0 = bench::Sweep::cg_counts(problem).front();
    std::vector<std::string> row = {problem.name};
    for (const auto& vname : variants) {
      const runtime::Variant v = runtime::variant_by_name(vname);
      const auto& base = sweep.run(problem, v, n0);
      const auto& top = sweep.run(problem, v, 128);
      row.push_back(TextTable::pct(
          bench::scaling_efficiency(base.mean_step, n0, top.mean_step, 128)));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << '\n';
}

/// Prints Figs 9 and 10 (acc_simd.async) from the already-run sweep.
void fp_tables(usw::bench::Sweep& sweep) {
  using namespace usw;
  const runtime::Variant simd = runtime::variant_by_name("acc_simd.async");
  const double cg_peak =
      hw::MachineParams::sunway_taihulight().cg_peak_gflops();
  TextTable gf("Fig 9: floating point performance (Gflop/s), acc_simd.async");
  TextTable eff("Fig 10: floating point efficiency (% of peak), acc_simd.async");
  std::vector<std::string> header = {"Problem"};
  for (int n = 1; n <= 128; n *= 2) header.push_back(std::to_string(n));
  gf.set_header(header);
  eff.set_header(header);
  double best_eff = 0.0;
  std::string best_case;
  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    std::vector<std::string> grow = {problem.name};
    std::vector<std::string> erow = {problem.name};
    for (int n = 1; n <= 128; n *= 2) {
      if (n < problem.min_cgs) {
        grow.push_back("-");
        erow.push_back("-");
        continue;
      }
      const auto& res = sweep.run(problem, simd, n);
      const double frac = res.gflops / (cg_peak * n);
      if (frac > best_eff) {
        best_eff = frac;
        best_case = problem.name + " @ " + std::to_string(n) + " CGs";
      }
      grow.push_back(TextTable::num(res.gflops, 1));
      erow.push_back(TextTable::pct(frac, 2));
    }
    gf.add_row(std::move(grow));
    eff.add_row(std::move(erow));
  }
  gf.print(std::cout);
  std::cout << '\n';
  eff.print(std::cout);
  const auto& big =
      sweep.run(runtime::problem_by_name("128x128x512"), simd, 128);
  std::cout << "\nbest efficiency: " << TextTable::pct(best_eff, 2) << " ("
            << best_case << "); paper best: 1.17% (64x64x512 @ 2 CGs)\n"
            << "largest problem @ 128 CGs: " << TextTable::num(big.gflops, 1)
            << " Gflop/s (paper: 974.5 Gflop/s, 1.0% of peak)\n\n";
}

/// Prints Table VI (scalar) or VII (vectorized) from the already-run
/// sweep and records the average and best improvement.
void improvement_table(usw::bench::Sweep& sweep, bool vectorized,
                       usw::bench::JsonReport& json) {
  using namespace usw;
  const runtime::Variant sync_v =
      runtime::variant_by_name(vectorized ? "acc_simd.sync" : "acc.sync");
  const runtime::Variant async_v =
      runtime::variant_by_name(vectorized ? "acc_simd.async" : "acc.async");

  TextTable table(vectorized
                      ? "Table VII: async improvement, vectorized kernel"
                      : "Table VI: async improvement, non-vectorized kernel");
  std::vector<std::string> header = {"Problem"};
  for (int n = 1; n <= 128; n *= 2) header.push_back(std::to_string(n));
  table.set_header(header);

  double sum = 0.0;
  int count = 0;
  double best = 0.0;
  double sync_overlap = 0.0;
  double async_overlap = 0.0;
  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    std::vector<std::string> row = {problem.name};
    for (int n = 1; n <= 128; n *= 2) {
      if (n < problem.min_cgs) {
        row.push_back("-");
        continue;
      }
      const auto& ts = sweep.run(problem, sync_v, n);
      const auto& ta = sweep.run(problem, async_v, n);
      const double gain = static_cast<double>(ts.mean_step - ta.mean_step) /
                          static_cast<double>(ta.mean_step);
      sum += gain;
      ++count;
      best = std::max(best, gain);
      sync_overlap += ts.overlap_efficiency;
      async_overlap += ta.overlap_efficiency;
      row.push_back(TextTable::pct(gain));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  const char* suffix = vectorized ? "simd" : "scalar";
  json.add_scalar(std::string("avg_improvement_") + suffix, sum / count);
  json.add_scalar(std::string("best_improvement_") + suffix, best);
  std::cout << "average improvement: " << TextTable::pct(sum / count)
            << ", best: " << TextTable::pct(best) << "\n"
            << "mean overlap efficiency: sync "
            << TextTable::pct(sync_overlap / count) << ", async "
            << TextTable::pct(async_overlap / count) << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace usw;
  const Options opts(argc, argv);
  bench::Sweep sweep;
  sweep.set_observe(true);
  sweep.set_backend(athread::backend_from_string(opts.get("backend", "serial")),
                    static_cast<int>(opts.get_int("backend-threads", 0)));
  bench::JsonReport json("fig5_strong_scaling");

  const std::vector<std::string> variants = {"acc.sync", "acc.async",
                                             "acc_simd.sync", "acc_simd.async"};

  for (const runtime::ProblemSpec& problem : runtime::paper_problems()) {
    TextTable table("Fig 5: wall time per step, problem " + problem.name);
    std::vector<std::string> header = {"CGs"};
    for (const auto& v : variants) header.push_back(v);
    table.set_header(header);
    for (int cgs : bench::Sweep::cg_counts(problem)) {
      std::vector<std::string> row = {std::to_string(cgs)};
      for (const auto& vname : variants) {
        const auto& res =
            sweep.run(problem, runtime::variant_by_name(vname), cgs);
        json.add({problem.name, vname, cgs, "", ""}, res);
        row.push_back(format_duration(res.mean_step));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  scaling_table(sweep, variants);
  improvement_table(sweep, /*vectorized=*/false, json);
  improvement_table(sweep, /*vectorized=*/true, json);
  fp_tables(sweep);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";
  return 0;
}
