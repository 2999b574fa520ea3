// aeqp_run: command-line driver -- the library as a standalone tool.
//
// Usage:
//   ./example_aeqp_run <geometry.xyz> [options]
//     --tier minimal|light     basis tier (default light)
//     --no-dfpt                stop after the ground state
//     --diis                   use Pulay mixing
//     --sigma <hartree>        Fermi-Dirac smearing width
//     --cube <file>            write the ground density as a cube file
//     --builtin water|ch4|h2   use a built-in geometry instead of a file
//
// Example:
//   ./example_aeqp_run --builtin water --diis

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "core/cube.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "core/xyz.hpp"
#include "obs/report.hpp"
#include "resilience/guards.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;

grid::Structure load_structure(const std::string& source, bool builtin) {
  if (builtin) {
    if (source == "water") return core::water();
    if (source == "ch4") return core::methane();
    if (source == "h2") {
      grid::Structure s;
      s.add_atom(1, {0, 0, -0.7});
      s.add_atom(1, {0, 0, 0.7});
      return s;
    }
    AEQP_THROW("unknown builtin geometry '" + source + "'");
  }
  std::ifstream in(source);
  AEQP_CHECK(in.good(), "cannot open geometry file '" + source + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return core::from_xyz(text.str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string source;
  bool builtin = false, run_dfpt = true;
  std::string cube_path;
  scf::ScfOptions opt;
  opt.grid.radial_points = 40;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 80;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--tier") {
      const std::string t = next("--tier");
      opt.tier = (t == "minimal") ? basis::BasisTier::Minimal
                                  : basis::BasisTier::Light;
    } else if (arg == "--no-dfpt") {
      run_dfpt = false;
    } else if (arg == "--diis") {
      opt.mixer = scf::Mixer::Diis;
    } else if (arg == "--sigma") {
      opt.smearing_sigma = std::stod(next("--sigma"));
    } else if (arg == "--cube") {
      cube_path = next("--cube");
    } else if (arg == "--builtin") {
      source = next("--builtin");
      builtin = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      source = arg;
    }
  }
  if (source.empty()) {
    std::fprintf(stderr,
                 "usage: %s <geometry.xyz> | --builtin water|ch4|h2 "
                 "[--tier minimal|light] [--diis] [--sigma s] [--no-dfpt] "
                 "[--cube out.cube]\n",
                 argv[0]);
    return 2;
  }

  // Per-run profile (AEQP_TRACE=summary|full); no-op when tracing is off.
  const obs::ScopedRunProfile profile("aeqp_run " + source);
  try {
    const grid::Structure mol = load_structure(source, builtin);
    std::printf("atoms: %zu, electrons: %d\n", mol.size(), mol.total_charge());

    const scf::ScfResult ground = scf::ScfSolver(mol, opt).run();
    std::printf("scf: %s in %d iterations\n",
                ground.converged ? "converged" : "NOT CONVERGED",
                ground.iterations);
    if (!ground.converged) return 1;
    std::printf("total_energy_ha: %.8f\n", ground.total_energy);
    std::printf("homo_lumo_gap_ev: %.4f\n",
                (ground.lumo - ground.homo) * constants::hartree_to_ev);

    if (!cube_path.empty()) {
      const auto& basis = *ground.basis;
      const auto& p = ground.density_matrix;
      const auto field = [&](const Vec3& r) {
        basis::PointEval ev;
        basis.evaluate(r, false, ev);
        double n = 0.0;
        for (std::size_t i = 0; i < ev.indices.size(); ++i)
          for (std::size_t j = 0; j < ev.indices.size(); ++j)
            n += p(ev.indices[i], ev.indices[j]) * ev.values[i] * ev.values[j];
        return n;
      };
      std::ofstream out(cube_path);
      out << core::to_cube(mol, field, {}, "AEQP ground-state density");
      std::printf("density_cube: %s\n", cube_path.c_str());
    }

    if (run_dfpt) {
      const core::DfptSolver dfpt(ground, {});
      const core::DfptResult r = dfpt.solve_all();
      std::printf("polarizability_bohr3:\n");
      for (int i = 0; i < 3; ++i)
        std::printf("  %12.6f %12.6f %12.6f\n", r.polarizability(i, 0),
                    r.polarizability(i, 1), r.polarizability(i, 2));
      std::printf("isotropic_polarizability_bohr3: %.6f\n",
                  r.isotropic_polarizability());
      // The grid-moment and Tr(P^(1) D) paths to alpha, worst direction.
      double gap = 0.0;
      for (const auto& d : r.directions)
        gap = std::max(gap, resilience::alpha_path_gap(d.dipole_response,
                                                       d.dipole_response_trace));
      std::printf("alpha_path_gap: %.3e\n", gap);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
