// Integration tests across the parallel substrate: the full distributed
// pipeline of the paper executed on the threaded simmpi runtime at small
// scale -- grid batches, locality-enhancing task mapping, per-rank partial
// grid integration, and packed (hierarchical) collectives -- validated
// bit-for-bit against the serial BatchIntegrator.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "basis/basis_set.hpp"
#include "comm/packed.hpp"
#include "core/structures.hpp"
#include "grid/batch.hpp"
#include "grid/molecular_grid.hpp"
#include "mapping/task_mapping.hpp"
#include "parallel/cluster.hpp"
#include "scf/integrator.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;

struct Problem {
  grid::Structure structure;
  std::shared_ptr<const basis::BasisSet> basis;
  std::shared_ptr<const grid::MolecularGrid> grid;
  std::vector<grid::Batch> batches;
};

Problem make_problem() {
  Problem p;
  p.structure = core::water();
  p.basis = std::make_shared<const basis::BasisSet>(p.structure,
                                                    basis::BasisTier::Minimal);
  grid::GridSpec spec;
  spec.radial_points = 30;
  spec.angular_degree = 9;
  p.grid = std::make_shared<const grid::MolecularGrid>(
      grid::MolecularGrid::build(p.structure, spec));
  p.batches = grid::make_batches(*p.grid, 128);
  return p;
}

/// Partial overlap matrix over one rank's batches.
linalg::Matrix partial_overlap(const Problem& p,
                               const std::vector<std::uint32_t>& batch_ids) {
  const std::size_t nb = p.basis->size();
  linalg::Matrix s(nb, nb);
  basis::PointEval ev;
  for (auto b : batch_ids) {
    for (auto pid : p.batches[b].points) {
      const grid::GridPoint& gp = p.grid->point(pid);
      p.basis->evaluate(gp.pos, false, ev);
      for (std::size_t i = 0; i < ev.indices.size(); ++i)
        for (std::size_t j = 0; j < ev.indices.size(); ++j)
          s(ev.indices[i], ev.indices[j]) +=
              gp.weight * ev.values[i] * ev.values[j];
    }
  }
  return s;
}

class DistributedOverlap
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, comm::ReduceMode>> {};

TEST_P(DistributedOverlap, MatchesSerialIntegrator) {
  const auto [ranks, per_node, mode] = GetParam();
  const Problem p = make_problem();
  ASSERT_GE(p.batches.size(), ranks);

  // Serial reference.
  const scf::BatchIntegrator serial(p.basis, p.grid);
  const linalg::Matrix reference = serial.overlap();

  // Distributed: locality mapping, per-rank partials, packed AllReduce of
  // the matrix rows (the same synthesis pattern as rho_multipole).
  const auto assignment = mapping::locality_enhancing_mapping(p.batches, ranks);
  const std::size_t nb = p.basis->size();

  std::vector<linalg::Matrix> results(ranks);
  parallel::Cluster cluster(ranks, per_node);
  cluster.run([&](parallel::Communicator& c) {
    linalg::Matrix partial =
        partial_overlap(p, assignment.batches_of_rank[c.rank()]);
    comm::PackedAllReducer packer(c, mode, /*max_bytes=*/3 * nb * sizeof(double));
    for (std::size_t row = 0; row < nb; ++row)
      packer.add(std::span<double>(partial.data() + row * nb, nb));
    packer.flush();
    results[c.rank()] = std::move(partial);
  });

  // Every rank holds the full synthesized matrix, equal to the reference.
  for (std::size_t r = 0; r < ranks; ++r) {
    ASSERT_EQ(results[r].rows(), nb);
    EXPECT_LT(results[r].max_abs_diff(reference), 1e-12) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, DistributedOverlap,
    ::testing::Values(
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            2, 2, comm::ReduceMode::Flat},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            4, 2, comm::ReduceMode::Flat},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            8, 4, comm::ReduceMode::Hierarchical},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            6, 4, comm::ReduceMode::Hierarchical},
        std::tuple<std::size_t, std::size_t, comm::ReduceMode>{
            12, 3, comm::ReduceMode::Hierarchical}));

TEST(DistributedDensity, PartitionedDensityIntegratesToElectronCount) {
  // Distribute a converged density-matrix contraction across ranks: the sum
  // of per-rank integrals must equal the electron count.
  const Problem p = make_problem();
  scf::ScfOptions opt;
  opt.tier = basis::BasisTier::Minimal;
  opt.grid.radial_points = 30;
  opt.grid.angular_degree = 9;
  opt.poisson.radial_points = 72;
  const scf::ScfResult ground = scf::ScfSolver(p.structure, opt).run();
  ASSERT_TRUE(ground.converged);

  const std::size_t ranks = 4;
  const auto assignment = mapping::locality_enhancing_mapping(p.batches, ranks);

  parallel::Cluster cluster(ranks, 2);
  cluster.run([&](parallel::Communicator& c) {
    double local = 0.0;
    basis::PointEval ev;
    for (auto b : assignment.batches_of_rank[c.rank()]) {
      for (auto pid : p.batches[b].points) {
        const grid::GridPoint& gp = p.grid->point(pid);
        p.basis->evaluate(gp.pos, false, ev);
        double n = 0.0;
        for (std::size_t i = 0; i < ev.indices.size(); ++i)
          for (std::size_t j = 0; j < ev.indices.size(); ++j)
            n += ground.density_matrix(ev.indices[i], ev.indices[j]) *
                 ev.values[i] * ev.values[j];
        local += gp.weight * n;
      }
    }
    std::vector<double> total = {local};
    c.allreduce_sum(total);
    EXPECT_NEAR(total[0], 10.0, 2e-3);  // water: 10 electrons
  });
}

}  // namespace
