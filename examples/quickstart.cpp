// Quickstart: all-electron DFPT polarizability of a water molecule.
//
// This is the library's end-to-end "hello world": build a structure, run
// the ground-state Kohn-Sham SCF (the DFT phase of paper Fig. 1), then run
// the DFPT self-consistency cycle (DM -> Sumup -> Rho -> H) for all three
// field directions and print the polarizability tensor of Eq. (13).
//
//   ./example_quickstart
//
// Profiling: the trace spans are the only phase timing. AEQP_TRACE=summary
// prints the per-phase report on exit (scf/*, cpscf/{dm,sumup,rho,h,
// sternheimer}, poisson/*); AEQP_TRACE=full additionally writes trace.json.
// See docs/observability.md.

#include <cstdio>

#include "common/constants.hpp"
#include "core/dfpt.hpp"
#include "core/structures.hpp"
#include "obs/report.hpp"
#include "scf/scf_solver.hpp"

int main() {
  using namespace aeqp;
  const obs::ScopedRunProfile profile("quickstart example");

  const grid::Structure h2o = core::water();
  std::printf("System: H2O, %zu atoms, %d electrons\n", h2o.size(),
              h2o.total_charge());

  // Light settings (paper Sec. 5.1): light basis tier + LDA.
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Light;
  opt.grid.radial_points = 40;
  opt.grid.angular_degree = 9;
  opt.poisson.l_max = 4;
  opt.poisson.radial_points = 80;
  opt.verbose = false;

  std::printf("Running ground-state SCF...\n");
  const scf::ScfResult ground = scf::ScfSolver(h2o, opt).run();
  std::printf("  converged: %s in %d iterations\n",
              ground.converged ? "yes" : "NO", ground.iterations);
  std::printf("  total energy:   %12.6f Ha\n", ground.total_energy);
  std::printf("  HOMO / LUMO:    %8.4f / %8.4f Ha (gap %.3f eV)\n", ground.homo,
              ground.lumo,
              (ground.lumo - ground.homo) * constants::hartree_to_ev);
  std::printf("  dipole moment:  (%.4f, %.4f, %.4f) e*bohr\n", ground.dipole.x,
              ground.dipole.y, ground.dipole.z);

  std::printf("Running DFPT (quantum perturbation cycle) for E-field "
              "perturbations...\n");
  core::DfptOptions dopt;
  dopt.tolerance = 1e-7;
  const core::DfptSolver dfpt(ground, dopt);
  const core::DfptResult result = dfpt.solve_all();

  std::printf("\nPolarizability tensor alpha_IJ (bohr^3):\n");
  for (int i = 0; i < 3; ++i)
    std::printf("  [ %9.4f %9.4f %9.4f ]\n", result.polarizability(i, 0),
                result.polarizability(i, 1), result.polarizability(i, 2));
  std::printf("Isotropic polarizability: %.4f bohr^3 (%.4f angstrom^3)\n",
              result.isotropic_polarizability(),
              result.isotropic_polarizability() * constants::bohr3_to_angstrom3);
  return 0;
}
