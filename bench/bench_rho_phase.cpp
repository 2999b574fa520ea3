// Rho-phase microbench (ISSUE 7): points/sec for the three Rho hot loops --
// density contraction (Sumup-style basis contraction feeding the
// projection), multipole projection (producer), and partitioned-potential
// interpolation (consumer) -- each measured through the batched kernels and
// through the legacy per-point call chain, with screening on and off.
// Writes BENCH_rho.json with the rates and speedups.
//
// Correctness rails built into the run: at tau = 0 the batched paths must
// agree with the per-point paths bit for bit (max |diff| printed and
// asserted 0), and at the default tau the density error bound is printed.
// Blocks are tune::kRhoBlockSize points, the solvers' consumer block.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "bench_output.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/structures.hpp"
#include "exec/thread_pool.hpp"
#include "scf/scf_solver.hpp"
#include "tune/tune.hpp"

namespace {

using namespace aeqp;

struct Rates {
  double contract_batched = 0, contract_batched_unscreened = 0,
         contract_per_point = 0;
  double project_batched = 0, project_per_point = 0;  // density evals / s
  double potential_batched = 0, potential_per_point = 0;
  double batched_vs_per_point_max_diff = 0;  // at tau = 0, must be 0
  std::size_t grid_points = 0, basis_size = 0, density_evals = 0;
};

/// Repeat `body` until it has run for >= min_seconds (>= 1 rep); returns
/// work_per_rep * reps / elapsed.
template <typename F>
double rate(double work_per_rep, double min_seconds, F&& body) {
  Timer timer;
  int reps = 0;
  do {
    body();
    ++reps;
  } while (timer.seconds() < min_seconds);
  return work_per_rep * reps / timer.seconds();
}

Rates run(bool smoke) {
  Rates out;
  const double min_s = smoke ? 0.01 : 0.25;

  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = smoke ? 26 : 48;
  opt.grid.angular_degree = smoke ? 7 : 11;
  opt.poisson.radial_points = smoke ? 60 : 96;
  opt.poisson.l_max = smoke ? 2 : 4;
  const scf::ScfResult ground = scf::ScfSolver(core::water(), opt).run();
  if (!ground.converged) {
    std::fprintf(stderr, "bench_rho_phase: SCF did not converge\n");
    return out;
  }
  const auto& basis = *ground.basis;
  const auto& grid = *ground.grid;
  const auto& hartree = *ground.hartree;
  const linalg::Matrix& p = ground.density_matrix;
  const std::size_t np = grid.size();
  out.grid_points = np;
  out.basis_size = basis.size();

  std::vector<Vec3> pts(np);
  for (std::size_t i = 0; i < np; ++i) pts[i] = grid.point(i).pos;

  const std::vector<double> screen_tau = basis.screening_radii(basis::kScreeningThreshold);
  const std::vector<double> no_screen;  // empty = unscreened
  const std::size_t block = tune::kRhoBlockSize;

  // --- Density contraction: n(p) over the whole grid. ---
  std::vector<double> n_batch(np), n_point(np);
  const auto contract_all = [&](std::span<const double> s, double* outp) {
    basis::BatchEval ev;
    for (std::size_t b = 0; b < np; b += block) {
      const std::size_t e = std::min(np, b + block);
      basis.evaluate_batch(pts.data() + b, e - b, s, ev);
      basis::contract_density(p, ev, outp + b);
    }
  };
  out.contract_batched =
      rate(static_cast<double>(np), min_s, [&] { contract_all(screen_tau, n_batch.data()); });
  out.contract_batched_unscreened =
      rate(static_cast<double>(np), min_s, [&] { contract_all(no_screen, n_batch.data()); });
  out.contract_per_point = rate(static_cast<double>(np), min_s, [&] {
    basis::PointEval ev;
    for (std::size_t i = 0; i < np; ++i) {
      basis.evaluate(pts[i], false, ev);
      double n = 0.0;
      for (std::size_t a = 0; a < ev.indices.size(); ++a)
        for (std::size_t b = 0; b < ev.indices.size(); ++b)
          n += p(ev.indices[a], ev.indices[b]) * ev.values[a] * ev.values[b];
      n_point[i] = n;
    }
  });
  // Rail: unscreened batched vs per-point must agree bit for bit.
  contract_all(no_screen, n_batch.data());
  for (std::size_t i = 0; i < np; ++i)
    out.batched_vs_per_point_max_diff = std::max(
        out.batched_vs_per_point_max_diff, std::fabs(n_batch[i] - n_point[i]));

  // --- Projection (producer): batched ring callback vs per-point. ---
  const poisson::BatchDensityFn batch_fn = [&](const Vec3* bp, std::size_t m,
                                               double* outp) {
    thread_local basis::BatchEval ev;
    basis.evaluate_batch(bp, m, screen_tau, ev);
    basis::contract_density(p, ev, outp);
  };
  const poisson::DensityFn point_fn = [&](const Vec3& pos) {
    basis::PointEval ev;
    basis.evaluate(pos, false, ev);
    double n = 0.0;
    for (std::size_t a = 0; a < ev.indices.size(); ++a)
      for (std::size_t b = 0; b < ev.indices.size(); ++b)
        n += p(ev.indices[a], ev.indices[b]) * ev.values[a] * ev.values[b];
    return n;
  };
  // Density evaluations per projection: the solver's ring points (each
  // shell's ring follows the angular ramp).
  out.density_evals = hartree.ring_offsets().back();
  out.project_batched = rate(static_cast<double>(out.density_evals), min_s,
                             [&] { (void)hartree.project(batch_fn); });
  out.project_per_point = rate(static_cast<double>(out.density_evals), min_s,
                               [&] { (void)hartree.project(point_fn); });

  // --- Potential interpolation (consumer). ---
  const auto v_part = hartree.solve_density(batch_fn);
  std::vector<double> vh(np);
  out.potential_batched = rate(static_cast<double>(np), min_s, [&] {
    for (std::size_t b = 0; b < np; b += block) {
      const std::size_t e = std::min(np, b + block);
      hartree.potential_batch(v_part, pts.data() + b, e - b, vh.data() + b);
    }
  });
  out.potential_per_point = rate(static_cast<double>(np), min_s, [&] {
    for (std::size_t i = 0; i < np; ++i)
      vh[i] = hartree.potential(v_part, pts[i]);
  });
  return out;
}

void print_table(const Rates& r) {
  Table t({"kernel", "batched (pts/s)", "per-point (pts/s)", "speedup"});
  const auto row = [&](const char* name, double b, double pp) {
    t.add_row({name, Table::num(b, 0), Table::num(pp, 0),
               Table::num(pp > 0 ? b / pp : 0.0, 2) + "x"});
  };
  row("density contraction (screened)", r.contract_batched, r.contract_per_point);
  row("density contraction (unscreened)", r.contract_batched_unscreened,
      r.contract_per_point);
  row("projection (density evals)", r.project_batched, r.project_per_point);
  row("potential interpolation", r.potential_batched, r.potential_per_point);
  std::printf("\nWorkload: water, %zu grid points, %zu basis functions, "
              "single thread.\n",
              r.grid_points, r.basis_size);
  t.print("Rho-phase kernels: batched vs per-point");
  std::printf("batched vs per-point max |dn| (tau = 0): %g%s\n",
              r.batched_vs_per_point_max_diff,
              r.batched_vs_per_point_max_diff == 0.0 ? " (bit-identical)"
                                                     : "  ** MISMATCH **");
}

void write_json(const Rates& r, bool smoke, const char* filename) {
  std::string path;
  std::FILE* f = benchio::open_bench(filename, &path);
  if (!f) {
    std::fprintf(stderr, "bench_rho_phase: cannot write %s\n", path.c_str());
    return;
  }
  benchio::write_envelope(f, "rho_phase");
  // The smoke workload's rates are not comparable with the full one's:
  // the ledger files smoke runs under a series of their own.
  std::fprintf(
      f,
      "  \"smoke\": %s,\n"
      "  \"molecule\": \"H2O\",\n"
      "  \"grid_points\": %zu,\n"
      "  \"basis_size\": %zu,\n"
      "  \"density_evals_per_projection\": %zu,\n"
      "  \"points_per_second\": {\n"
      "    \"contract_batched_screened\": %.1f,\n"
      "    \"contract_batched_unscreened\": %.1f,\n"
      "    \"contract_per_point\": %.1f,\n"
      "    \"project_batched\": %.1f,\n"
      "    \"project_per_point\": %.1f,\n"
      "    \"potential_batched\": %.1f,\n"
      "    \"potential_per_point\": %.1f\n"
      "  },\n"
      "  \"speedups\": {\n"
      "    \"contract\": %.3f,\n"
      "    \"project\": %.3f,\n"
      "    \"potential\": %.3f\n"
      "  },\n"
      "  \"batched_vs_per_point_max_diff\": %g\n"
      "}\n",
      smoke ? "true" : "false", r.grid_points, r.basis_size, r.density_evals,
      r.contract_batched,
      r.contract_batched_unscreened, r.contract_per_point, r.project_batched,
      r.project_per_point, r.potential_batched, r.potential_per_point,
      r.contract_per_point > 0 ? r.contract_batched / r.contract_per_point : 0,
      r.project_per_point > 0 ? r.project_batched / r.project_per_point : 0,
      r.potential_per_point > 0 ? r.potential_batched / r.potential_per_point
                                : 0,
      r.batched_vs_per_point_max_diff);
  std::fclose(f);
  std::printf("Wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strstr(argv[i], "--benchmark_filter=__none__")) smoke = true;

  // Single-thread rates: the acceptance criterion is raw kernel speed, and
  // one thread keeps the numbers free of scheduler noise.
  exec::ThreadPool::set_global_threads(1);
  const Rates r = run(smoke);
  exec::ThreadPool::set_global_threads(0);
  if (r.grid_points == 0) return 1;
  print_table(r);
  write_json(r, smoke, "BENCH_rho.json");
  return r.batched_vs_per_point_max_diff == 0.0 ? 0 : 2;
}
