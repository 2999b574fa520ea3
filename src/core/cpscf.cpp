#include "core/cpscf.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "exec/thread_pool.hpp"
#include "kernels/batch_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "poisson/multipole.hpp"
#include "resilience/guards.hpp"
#include "resilience/membudget.hpp"
#include "resilience/sdc_inject.hpp"
#include "tune/tune.hpp"
#include "xc/lda.hpp"

namespace aeqp::core::detail {

using linalg::Matrix;

CpscfGround::CpscfGround(const scf::ScfResult& g, double screening_threshold)
    : ground(g) {
  AEQP_CHECK(g.converged, "CPSCF: ground state is not converged");
  AEQP_CHECK(g.basis && g.grid && g.integrator && g.hartree,
             "CPSCF: ground state lacks shared machinery");
  const std::size_t nb = g.coefficients.rows();
  const std::size_t n_occ = static_cast<std::size_t>(g.n_occupied);
  AEQP_CHECK(n_occ >= 1 && n_occ < nb,
             "CPSCF: need at least one occupied and one virtual orbital");
  // Finite gap required by the sum-over-states Sternheimer solution.
  AEQP_CHECK(g.lumo - g.homo > 1e-8, "CPSCF: vanishing HOMO-LUMO gap");
  c_occ = Matrix(nb, n_occ);
  c_virt = Matrix(nb, nb - n_occ);
  for (std::size_t mu = 0; mu < nb; ++mu) {
    for (std::size_t i = 0; i < n_occ; ++i) c_occ(mu, i) = g.coefficients(mu, i);
    for (std::size_t a = n_occ; a < nb; ++a) c_virt(mu, a - n_occ) = g.coefficients(mu, a);
  }
  fxc.resize(g.density_samples.size());
  for (std::size_t p = 0; p < fxc.size(); ++p)
    fxc[p] = xc::lda_evaluate(std::max(g.density_samples[p], 0.0)).fxc;
  // Geometry + threshold only, so every rank derives identical screening.
  screen_radii = g.basis->screening_radii(screening_threshold);
}

RankTiles::RankTiles(const std::vector<scf::GridTile>& tiles) : tiles_(&tiles) {
  begin_.assign(1, 0);
  for (const scf::GridTile& tile : tiles) {
    points_.insert(points_.end(), tile.point_ids.begin(), tile.point_ids.end());
    begin_.push_back(points_.size());
  }
}

RankTiles::RankTiles(const basis::BasisSet& basis, const grid::MolecularGrid& grid,
                     const std::vector<grid::Batch>& batches,
                     const std::vector<std::uint32_t>& owned, bool cache)
    : basis_(&basis), grid_(&grid) {
  begin_.assign(1, 0);
  for (const std::uint32_t b : owned) {
    points_.insert(points_.end(), batches[b].points.begin(), batches[b].points.end());
    begin_.push_back(points_.size());
  }
  std::size_t bytes = points_.capacity() * sizeof(std::uint32_t);
  if (cache) {
    // Governor probe before the dominant per-rank allocation is committed:
    // an over-budget rank raises the structured OutOfMemoryBudget here,
    // where the recovery ladder can catch it, instead of dying in
    // std::bad_alloc mid-build. The estimate covers the point ids and CSR
    // offsets; the commit probe audits the measured bytes.
    resilience::oom_probe("dfpt/point_cache", 2 * points_.size() * sizeof(std::uint32_t));
    cache_.resize(size());
    exec::parallel_for(0, size(), [&](std::size_t t) {
      scf::build_tile(basis, grid, points_of(t), false, cache_[t]);
    });
    tiles_ = &cache_;
    for (const scf::GridTile& tile : cache_) bytes += tile.bytes();
  }
  if (obs::memaudit_enabled()) mem_.add(static_cast<std::int64_t>(bytes));
}

const scf::GridTile& RankTiles::tile(std::size_t t, scf::GridTile& scratch) const {
  if (tiles_ != nullptr) return (*tiles_)[t];
  scf::build_tile(*basis_, *grid_, points_of(t), false, scratch);
  return scratch;
}

CpscfRun::CpscfRun(const CpscfGround& inputs, const ParallelDfptOptions& w, int j)
    : in(inputs),
      world(w),
      direction(j),
      h1_ext(inputs.ground.integrator->dipole_matrix(j)) {
  const std::size_t nb = in.ground.coefficients.rows();
  if (world.dfpt.warm_start) {
    const CpscfWarmStart& ws = *world.dfpt.warm_start;
    AEQP_CHECK(ws.p1.rows() == nb && ws.p1.cols() == nb,
               "CPSCF: warm start P^(1) has wrong dimensions");
    AEQP_CHECK(ws.iteration >= 1 && ws.iteration < world.dfpt.max_iterations,
               "CPSCF: warm start iteration outside (0, max_iterations)");
  }
  // Bare perturbation matrix: -r_J (paper Eq. 11).
  h1_ext.scale(-1.0);
  result.n1_samples.assign(in.ground.grid->size(), 0.0);
  for (const Phase p : {Phase::DM, Phase::Sumup, Phase::Rho, Phase::H, Phase::Sternheimer})
    result.phase_seconds[p] = 0.0;
}

DfptDirectionResult CpscfRun::finish(const std::string& who, const std::string& context) {
  const DfptOptions& opt = world.dfpt;
  if (!result.converged && !result.aborted && opt.require_convergence) {
    std::ostringstream msg;
    msg << who << ": CPSCF failed to converge for direction " << direction << ": "
        << result.iterations << " iterations, last max|dP1|=" << last_delta
        << ", tolerance=" << opt.tolerance << ", mixing=" << opt.mixing << context;
    AEQP_THROW(msg.str());
  }
  // Independent path: mu_I = Tr(P D_I) => alpha_IJ = Tr(P^(1)_J D_I).
  for (int axis = 0; axis < 3; ++axis)
    result.dipole_response_trace[axis] =
        linalg::trace_product(result.p1, in.ground.integrator->dipole_matrix(axis));
  return std::move(result);
}

void run_cpscf_rank(parallel::Communicator& comm, CpscfRun& run,
                    const RankTiles& tiles) {
  const CpscfGround& in = run.in;
  const scf::ScfResult& ground = in.ground;
  const ParallelDfptOptions& world = run.world;
  const DfptOptions& opt = world.dfpt;
  const auto& basis = *ground.basis;
  const auto& grid = *ground.grid;
  const auto& hartree = *ground.hartree;
  const std::size_t nb = ground.coefficients.rows();
  const std::size_t rank = comm.rank();
  const bool lead = rank == 0;
  const std::vector<std::uint32_t>& points = tiles.points();
  DfptDirectionResult& result = run.result;
  PhaseTimes& t = result.phase_seconds;

  // P^(1) and its fold are replicated on every rank: O(N^2) in the global
  // basis size, the dominant per-rank structures next to the tile cache.
  resilience::oom_probe("dfpt/p1_replicated", nb * nb * sizeof(double));
  Matrix p1(nb, nb);
  // The folded P^(1) that Sumup and the Rho producer contract
  // (basis::fold_density), refolded every iteration.
  resilience::oom_probe("dfpt/p1_fold", nb * nb * sizeof(double));
  Matrix p1_fold(nb, nb);
  obs::MemScope p1_mem("dfpt/p1_replicated");
  obs::MemScope fold_mem("dfpt/p1_fold");
  if (obs::memaudit_enabled()) {
    p1_mem.add(static_cast<std::int64_t>(nb * nb * sizeof(double)));
    fold_mem.add(static_cast<std::int64_t>(nb * nb * sizeof(double)));
  }
  // Re-check committed usage now that the measured bytes are on the
  // gauges (request 0 = audit the ceiling, admit nothing new).
  resilience::oom_probe("dfpt/point_cache_commit", 0);

  // This rank's point slots (tile order); ranks own disjoint points.
  std::vector<double> n1(points.size(), 0.0);  // response density
  std::vector<double> v1(points.size(), 0.0);  // v^(1)_es,tot + v^(1)_xc
  bool have_response = false;

  // Packed sum-AllReduce of the rows `add_rows` queues, counted for the
  // run statistics.
  const auto packed_sum = [&](const auto& add_rows) {
    comm::PackedAllReducer packer(comm, world.reduce_mode,
                                  tune::pack_window_bytes(world.pack_bytes),
                                  world.verify_collectives);
    add_rows(packer);
    packer.flush();
    if (lead) {
      run.collectives += packer.collective_count();
      run.rows += packer.rows_packed();
    }
  };

  // Sumup and Rho as functions of P^(1): shared by the iteration body and
  // the warm-start path (the response potential is derived state, so a
  // checkpoint only has to carry P^(1)).
  const auto compute_sumup = [&] {
    basis::fold_density(p1, p1_fold);
    if (opt.device) {
      // One work-group per tile, through the same tile contraction.
      std::vector<double> n_grid(grid.size(), 0.0);
      kernels::sumup_kernel(*opt.device, grid, *tiles.cached(), p1, n_grid);
      for (std::size_t k = 0; k < points.size(); ++k) n1[k] = n_grid[points[k]];
    } else {
      exec::parallel_for(0, tiles.size(), [&](std::size_t tt) {
        thread_local scf::GridTile scratch;
        scf::tile_density(p1_fold, tiles.tile(tt, scratch), n1.data() + tiles.begin(tt));
      });
    }
    // Compute-site probe: a planted fault corrupts this rank's freshly
    // accumulated density batch here, exactly where a real kernel upset
    // would land (events target a rank through the thread's rank tag).
    resilience::sdc_probe("cpscf/rho_batch", {n1.data(), n1.size()});
  };
  const auto compute_rho = [&] {
    // Batched producer: angular rings go through the shared basis-density
    // callback (ring blocks are geometry-defined, hence rank-identical).
    const poisson::BatchDensityFn n1_fn =
        poisson::basis_density(basis, in.screen_radii, p1_fold);
    poisson::PartitionedPotential v1_part;
    if (!run.rho_row_begin.empty()) {
      // Distributed producer: this rank projects only its weighted share
      // of the (atom, shell) rows; the full rho_multipole is synthesized
      // with a packed row-by-row AllReduce. Each row is computed by
      // exactly one rank and summed with exact zeros, so the synthesized
      // samples -- and everything downstream -- are bit-identical to the
      // replicated producer.
      auto rho_m = hartree.project_rows(n1_fn, run.rho_row_begin[rank],
                                        run.rho_row_begin[rank + 1]);
      packed_sum([&](comm::PackedAllReducer& packer) {
        for (auto& per_atom : rho_m.samples)
          for (auto& channel : per_atom) packer.add(channel);
      });
      hartree.finalize_splines(rho_m);
      v1_part = hartree.solve(rho_m);
    } else {
      v1_part = hartree.solve_density(n1_fn);
    }
    // Batched consumer over this rank's points, `block` points per
    // potential_batch call. Each point's value is independent, so the
    // block size is pure cache tuning and never changes v1.
    const std::size_t block = tune::rho_block_size(opt.rho_block_size);
    exec::parallel_for_ranges(0, points.size(), block, [&](std::size_t b0, std::size_t e0) {
      thread_local std::vector<Vec3> ppos;
      thread_local std::vector<double> vh;
      for (std::size_t b = b0; b < e0; b += block) {
        const std::size_t e = std::min(e0, b + block);
        ppos.resize(e - b);
        vh.resize(e - b);
        for (std::size_t k = b; k < e; ++k) ppos[k - b] = grid.point(points[k]).pos;
        hartree.potential_batch(v1_part, ppos.data(), e - b, vh.data());
        for (std::size_t k = b; k < e; ++k) v1[k] = vh[k - b] + in.fxc[points[k]] * n1[k];
      }
    });
  };

  int start_iteration = 0;
  if (opt.warm_start) {
    p1 = opt.warm_start->p1;
    have_response = true;
    start_iteration = opt.warm_start->iteration;
    compute_sumup();
    compute_rho();
  }

  // Runs one phase inside its trace span; rank 0 books its wall time.
  const auto phase = [&](Phase p, const char* span, const auto& body) {
    const Timer timer;
    const obs::TraceScope scope(span);
    body();
    if (lead) t[p] += timer.seconds();
  };

  for (int iter = start_iteration + 1; iter <= opt.max_iterations; ++iter) {
    // --- H phase: response Hamiltonian H^(1) (Eqs. 10-12). Partial
    //     integrals over this rank's tiles (a SIMT launch on a device),
    //     synthesized by packed AllReduce. ---
    Matrix h1 = run.h1_ext;
    phase(Phase::H, "cpscf/h", [&] {
      if (have_response) {
        Matrix partial(nb, nb);
        if (opt.device) {
          std::vector<double> v_grid(grid.size(), 0.0);
          for (std::size_t k = 0; k < points.size(); ++k) v_grid[points[k]] = v1[k];
          kernels::h_kernel(*opt.device, grid, *tiles.cached(), v_grid, partial);
        } else {
          scf::accumulate_tiles(
              grid, tiles.size(),
              [&](std::size_t tt, scf::GridTile& scratch) -> const scf::GridTile& {
                return tiles.tile(tt, scratch);
              },
              [&](std::size_t tt, const scf::GridTile&, std::size_t k) {
                return v1[tiles.begin(tt) + k];
              },
              /*laplacian=*/false, partial);
        }
        packed_sum([&](comm::PackedAllReducer& packer) {
          for (std::size_t row = 0; row < nb; ++row)
            packer.add(std::span<double>(partial.data() + row * nb, nb));
        });
        h1.axpy(1.0, partial);
        h1.symmetrize();
      }
      // Phase-boundary invariant: H^(1) is Hermitian by construction;
      // asymmetry or a non-finite entry is corruption. The value is
      // replicated, so all ranks throw together and the collective
      // schedule stays aligned.
      resilience::guard_hermitian(h1, "cpscf/h1");
    });

    // --- Sternheimer update (replicated): the +-omega amplitudes. With
    //     ABFT on, a compute-site fault on one rank is corrected locally
    //     before it can de-synchronize the replicas. ---
    ResponseOrbitals c1;
    phase(Phase::Sternheimer, "cpscf/sternheimer", [&] {
      c1 = sternheimer_update(h1, in.c_occ, in.c_virt, ground.eigenvalues,
                              opt.frequency, opt.abft);
    });

    // --- DM phase: P^(1) = sum_i f_i (C^(1)+ C^T + C C^(1)-T), the
    //     omega-generalization of Eq. (7), with linear mixing. ---
    double delta = 0.0;
    phase(Phase::DM, "cpscf/dm", [&] {
      Matrix p1_new = response_density_matrix(c1, in.c_occ, ground.occupations);
      if (have_response) {
        p1_new.scale(opt.mixing);
        p1_new.axpy(1.0 - opt.mixing, p1);
      }
      delta = p1_new.max_abs_diff(p1);
      p1 = std::move(p1_new);
      // Phase-boundary invariants: P^(1) finite, and tr(P^(1) S) = 0 --
      // the perturbation conserves the electron count.
      resilience::guard_finite(p1, "cpscf/p1");
      resilience::guard_trace_identity(p1, ground.overlap, 0.0, "cpscf/p1");
    });
    if (lead) {
      result.iterations = iter;
      run.last_delta = delta;
    }

    // --- Observer hook (health validation / checkpointing) on rank 0
    //     only, so side effects happen exactly once; its decision is
    //     broadcast so every rank takes the same branch. The broadcast
    //     exists only when an observer is installed. ---
    if (opt.observer) {
      std::vector<double> action(1, 0.0);
      if (lead) {
        const CpscfIterationState state{run.direction, iter, delta, opt.mixing, &p1};
        if (opt.observer(state) == CpscfAction::Abort) action[0] = 1.0;
      }
      comm.broadcast(action, 0);
      if (action[0] != 0.0) {
        if (lead) result.aborted = true;
        break;
      }
    }
    // --- Rank hook on EVERY rank (the buddy-replication entry point),
    //     after the abort broadcast so the collective schedule stays
    //     uniform. ---
    if (world.rank_hook) {
      const CpscfIterationState state{run.direction, iter, delta, opt.mixing, &p1};
      world.rank_hook(comm, state);
    }

    // --- Sumup phase: n^(1)(r) on this rank's points (Eq. 8). ---
    phase(Phase::Sumup, "cpscf/sumup", [&] {
      compute_sumup();
      // Second rung of the SDC ladder: the batch is a pure function of
      // the replicated P^(1), so a transient corruption is repaired by one
      // local recompute, without any collective traffic. A second
      // violation escalates (peers see RankFailure and the RecoveryDriver
      // takes over).
      try {
        resilience::guard_finite({n1.data(), n1.size()}, "cpscf/n1");
      } catch (const InvariantViolation&) {
        obs::counter("sdc/local_recomputes").increment();
        obs::trace_instant("sdc/recompute");
        compute_sumup();
        resilience::guard_finite({n1.data(), n1.size()}, "cpscf/n1");
      }
    });

    // --- Rho phase: v^(1)_H by multipole Poisson solve (Eq. 9) plus the
    //     XC kernel term f_xc n^(1) (Eq. 12). ---
    phase(Phase::Rho, "cpscf/rho", [&] {
      compute_rho();
      resilience::guard_finite({v1.data(), v1.size()}, "cpscf/v1");
    });

    have_response = true;
    if (opt.verbose && lead)
      AEQP_LOG_INFO << "DFPT dir " << run.direction << " iter " << iter
                    << " max|dP1|=" << delta;
    if (delta < opt.tolerance && iter > 1) {
      if (lead) result.converged = true;
      break;
    }
  }

  // Publish this rank's share of n^(1) (disjoint points) and the dipole
  // moment int r_I n^(1), summed over ranks.
  std::vector<double> moments(3, 0.0);
  for (std::size_t k = 0; k < points.size(); ++k) {
    const grid::GridPoint& gp = grid.point(points[k]);
    result.n1_samples[points[k]] = n1[k];
    for (int axis = 0; axis < 3; ++axis)
      moments[static_cast<std::size_t>(axis)] += gp.weight * gp.pos[axis] * n1[k];
  }
  comm.allreduce_sum(moments);
  if (lead) {
    result.dipole_response = {moments[0], moments[1], moments[2]};
    result.p1 = std::move(p1);
  }
}

}  // namespace aeqp::core::detail
