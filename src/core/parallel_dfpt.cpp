#include "core/parallel_dfpt.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "basis/basis_set.hpp"
#include "common/error.hpp"
#include "common/thread_ident.hpp"
#include "common/timer.hpp"
#include "linalg/sparse.hpp"
#include "obs/memaudit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "parallel/fault.hpp"
#include "poisson/multipole.hpp"
#include "resilience/guards.hpp"
#include "resilience/membudget.hpp"
#include "resilience/sdc_inject.hpp"
#include "tune/tune.hpp"
#include "xc/lda.hpp"

namespace aeqp::core {

using linalg::Matrix;

ParallelDfptResult solve_direction_parallel(const scf::ScfResult& ground,
                                            const ParallelDfptOptions& options,
                                            int direction) {
  AEQP_CHECK(direction >= 0 && direction < 3,
             "solve_direction_parallel: direction must be 0..2");
  AEQP_CHECK(ground.converged, "solve_direction_parallel: unconverged ground state");
  AEQP_CHECK(ground.basis && ground.grid && ground.integrator && ground.hartree,
             "solve_direction_parallel: ground state lacks shared machinery");
  AEQP_CHECK(!options.dfpt.device,
             "solve_direction_parallel: DfptOptions::device is not supported "
             "by the distributed solver (use DfptSolver)");

  const auto& basis = *ground.basis;
  const auto& grid = *ground.grid;
  const auto& integ = *ground.integrator;
  const auto& hartree = *ground.hartree;
  const std::size_t nb = ground.coefficients.rows();
  const std::size_t n_occ = static_cast<std::size_t>(ground.n_occupied);
  const std::size_t n_virt = nb - n_occ;
  const std::size_t np = grid.size();

  // Elastic world: a non-empty active_ranks list re-enters the solver at a
  // reduced world size after permanent rank loss. n_active is the world the
  // run executes on; options.ranks stays the original world fault plans and
  // the initial mapping are expressed in.
  const std::vector<std::size_t>& active = options.active_ranks;
  const std::size_t n_active = active.empty() ? options.ranks : active.size();
  for (std::size_t s = 0; s < active.size(); ++s) {
    AEQP_CHECK(active[s] < options.ranks,
               "solve_direction_parallel: active rank out of range");
    AEQP_CHECK(s == 0 || active[s - 1] < active[s],
               "solve_direction_parallel: active_ranks must be strictly "
               "increasing");
  }

  // Shared, read-only setup: batches, locality mapping, XC kernel, the
  // occupied/virtual splits and the bare perturbation (identical to the
  // serial DfptSolver; see dfpt.cpp).
  const auto batches =
      grid::make_batches(grid, tune::grid_batch_points(options.batch_points));
  AEQP_CHECK(batches.size() >= options.ranks,
             "solve_direction_parallel: more ranks than batches");
  auto assignment = mapping::locality_enhancing_mapping(batches, options.ranks);
  ParallelDfptResult out;
  if (n_active < options.ranks) {
    // Survivor re-mapping: re-home the dead ranks' batches with the same
    // locality objective, keeping the survivors' own batches in place.
    Timer remap_timer;
    auto remap = mapping::remap_for_survivors(assignment, batches, active);
    out.stats.remap_seconds = remap_timer.seconds();
    out.stats.remap_batches_moved = remap.moved_batches;
    assignment = std::move(remap.assignment);
    obs::trace_instant("elastic/remap");
  }
  out.stats.survivor_ranks = n_active;
  out.stats.lost_ranks = options.ranks - n_active;

  // Current-world speed weights (1.0 = healthy); reused by the weighted
  // Rho-producer row split when distribute_rho is on.
  std::vector<double> world_weights(n_active, 1.0);
  if (!options.rank_speed_weights.empty()) {
    // Straggler rebalance rung: re-home batches around the measured rank
    // speeds. Weights are original-world indexed; translate to the running
    // world's slots (identity when no shrink happened). Every rank computes
    // the same deterministic mapping, so results stay bit-identical to a
    // run that started from this assignment.
    AEQP_CHECK(options.rank_speed_weights.size() == options.ranks,
               "solve_direction_parallel: rank_speed_weights must cover the "
               "original world");
    std::size_t n_slow = 0;
    for (std::size_t s = 0; s < n_active; ++s) {
      world_weights[s] =
          options.rank_speed_weights[active.empty() ? s : active[s]];
      if (world_weights[s] < 1.0) ++n_slow;
    }
    Timer rebalance_timer;
    auto rebalance =
        mapping::rebalance_for_slow_ranks(assignment, batches, world_weights);
    out.stats.rebalance_seconds = rebalance_timer.seconds();
    out.stats.rebalance_batches_moved = rebalance.moved_batches;
    out.stats.rebalances = 1;
    out.stats.degraded_ranks = n_slow;
    assignment = std::move(rebalance.assignment);
    obs::trace_instant("mapping/rebalance");
  }

  // Weighted contiguous row ranges of the Poisson producer (empty = the
  // replicated producer). Shares are proportional to the measured speed
  // weights -- an 8x-slow rank projects ~1/8 as many rho_multipole rows --
  // and every rank derives the identical split, so the packed synthesis
  // below sums disjoint contributions in a fixed order.
  std::vector<std::size_t> rho_row_begin;
  if (options.distribute_rho && n_active > 1) {
    const std::size_t nrows = hartree.projection_row_count();
    rho_row_begin.assign(n_active + 1, 0);
    double wsum = 0.0;
    for (double wv : world_weights) wsum += wv;
    double acc = 0.0;
    for (std::size_t s = 0; s + 1 < n_active; ++s) {
      acc += world_weights[s];
      rho_row_begin[s + 1] = std::max(
          rho_row_begin[s],
          static_cast<std::size_t>(std::llround(
              static_cast<double>(nrows) * acc / wsum)));
    }
    rho_row_begin[n_active] = nrows;
    for (std::size_t s = 0; s < n_active; ++s)
      rho_row_begin[s + 1] = std::max(rho_row_begin[s + 1], rho_row_begin[s]);
  }

  std::vector<double> fxc(np);
  for (std::size_t p = 0; p < np; ++p)
    fxc[p] = xc::lda_evaluate(std::max(ground.density_samples[p], 0.0)).fxc;

  // Screening radii are shared read-only state: geometry + threshold only,
  // so every rank derives identical screening decisions.
  const std::vector<double> screen_radii =
      basis.screening_radii(options.dfpt.screening_threshold);

  Matrix c_occ(nb, n_occ), c_virt(nb, n_virt);
  for (std::size_t mu = 0; mu < nb; ++mu) {
    for (std::size_t i = 0; i < n_occ; ++i) c_occ(mu, i) = ground.coefficients(mu, i);
    for (std::size_t a = 0; a < n_virt; ++a)
      c_virt(mu, a - 0) = ground.coefficients(mu, n_occ + a);
  }
  Matrix h1_ext = integ.dipole_matrix(direction);
  h1_ext.scale(-1.0);

  out.stats.batches = batches.size();
  std::size_t total_pts = 0, max_pts = 0;
  for (std::size_t r = 0; r < n_active; ++r) {
    const std::size_t pts = assignment.points_of_rank(r, batches);
    total_pts += pts;
    max_pts = std::max(max_pts, pts);
  }
  out.stats.max_rank_points_share =
      static_cast<double>(max_pts) * n_active / static_cast<double>(total_pts);

  // Shared output buffers; ranks write disjoint point sets.
  std::vector<double> n1_full(np, 0.0);
  std::vector<std::size_t> collectives(n_active, 0);
  std::vector<std::size_t> rows(n_active, 0);
  DfptDirectionResult result;
  result.phase_seconds[Phase::DM] = result.phase_seconds[Phase::Sumup] =
      result.phase_seconds[Phase::Rho] = result.phase_seconds[Phase::H] =
          result.phase_seconds[Phase::Sternheimer] = 0.0;

  double final_delta = 0.0;  // written by rank 0 (deltas are replicated)

  parallel::Cluster cluster(n_active, options.ranks_per_node,
                            std::vector<std::size_t>(active));
  cluster.set_collective_timeout(
      std::chrono::milliseconds(options.collective_timeout_ms));
  cluster.set_fault_injector(options.fault_injector);
  cluster.set_verify_payloads(options.verify_collectives);
  cluster.set_straggler_detector(options.straggler_detector);
  // The constructor already armed adaptive deadlines when the env gate is
  // on (adaptive_deadlines == -1 keeps that); 0/1 force the state.
  if (options.adaptive_deadlines == 0)
    cluster.set_adaptive_deadlines(false);
  else if (options.adaptive_deadlines == 1 ||
           (cluster.adaptive_deadlines() && options.adaptive_floor_ms > 0.0))
    cluster.set_adaptive_deadlines(true, options.adaptive_floor_ms);
  cluster.run([&](parallel::Communicator& comm) {
    // Tag this rank thread: the log sink prefixes its lines and the trace
    // exporter gives it its own lane. Purely observational.
    const ScopedThreadRank rank_tag(static_cast<int>(comm.rank()));
    AEQP_TRACE_SCOPE("cpscf/parallel_direction");
    const auto& my_batches = assignment.batches_of_rank[comm.rank()];
    // Cache this rank's point ids and basis values.
    std::vector<std::uint32_t> my_points;
    for (auto b : my_batches)
      my_points.insert(my_points.end(), batches[b].points.begin(),
                       batches[b].points.end());
    // Governor probes (resilience/membudget.hpp) fire before the two
    // dominant per-rank allocations are committed: an over-budget rank
    // raises the structured OutOfMemoryBudget here, where the recovery
    // ladder can catch it, instead of dying in std::bad_alloc mid-resize.
    std::vector<basis::PointEval> my_eval;
    basis::PointEval eval_scratch;  // on-the-fly slot when the cache is shed
    if (options.cache_point_evals) {
      resilience::oom_probe("dfpt/point_cache",
                            my_points.size() * (sizeof(basis::PointEval) +
                                                sizeof(std::uint32_t)));
      my_eval.resize(my_points.size());
      for (std::size_t k = 0; k < my_points.size(); ++k)
        basis.evaluate(grid.point(my_points[k]).pos, false, my_eval[k]);
    }
    resilience::oom_probe("dfpt/p1_replicated", nb * nb * sizeof(double));
    Matrix p1(nb, nb);
    // The folded P^(1) the Rho producer contracts (basis::fold_density):
    // one more replicated nb x nb matrix, allocated once per direction and
    // refolded every iteration.
    resilience::oom_probe("dfpt/p1_fold", nb * nb * sizeof(double));
    Matrix p1_fold(nb, nb);
    // Memory audit (ROADMAP item 3): P^(1) and its fold are fully
    // replicated per rank (O(N^2) in global basis size) and the point-eval
    // cache scales with the rank's point share -- the dominant per-rank
    // structures this solver holds. Scopes release when the rank lambda
    // returns.
    obs::MemScope p1_mem("dfpt/p1_replicated");
    obs::MemScope fold_mem("dfpt/p1_fold");
    obs::MemScope eval_mem("dfpt/point_cache");
    if (obs::memaudit_enabled()) {
      p1_mem.add(static_cast<std::int64_t>(nb * nb * sizeof(double)));
      fold_mem.add(static_cast<std::int64_t>(nb * nb * sizeof(double)));
      std::int64_t eval_bytes = static_cast<std::int64_t>(
          my_eval.capacity() * sizeof(basis::PointEval) +
          my_points.capacity() * sizeof(std::uint32_t));
      for (const auto& ev : my_eval)
        eval_bytes += static_cast<std::int64_t>(
            ev.indices.capacity() * sizeof(std::uint32_t) +
            (ev.values.capacity() + ev.laplacians.capacity()) *
                sizeof(double));
      eval_mem.add(eval_bytes);
    }
    // Re-check committed usage now that the measured cache bytes are on the
    // gauges: the pre-allocation probe used a per-slot estimate, this one
    // is exact (request 0 = audit the ceiling, admit nothing new).
    resilience::oom_probe("dfpt/point_cache_commit", 0);
    std::vector<double> v1_own(my_points.size(), 0.0);
    std::vector<double> n1_own(my_points.size(), 0.0);
    bool have_response = false;
    Timer timer;

    // Point-eval accessor shared by the Sumup and H loops: the cached slot
    // when the cache is resident, deterministic re-evaluation into the
    // scratch slot when the relief ladder shed it. Bit-identical either
    // way: same evaluator, same points, same accumulation order.
    const auto eval_of = [&](std::size_t k) -> const basis::PointEval& {
      if (options.cache_point_evals) return my_eval[k];
      basis.evaluate(grid.point(my_points[k]).pos, false, eval_scratch);
      return eval_scratch;
    };

    // Sumup and Rho restricted to this rank's points, as functions of the
    // (replicated) P^(1); shared by the iteration body and the warm-start
    // path so a resume recomputes the derived response state identically.
    const auto compute_sumup_own = [&]() {
      linalg::CsrMatrix p1_csr;
      if (options.storage == HamiltonianStorage::GlobalSparseCsr) {
        std::vector<linalg::Triplet> trips;
        trips.reserve(nb * nb);
        for (std::size_t i = 0; i < nb; ++i)
          for (std::size_t j = 0; j < nb; ++j)
            if (p1(i, j) != 0.0) trips.push_back({i, j, p1(i, j)});
        p1_csr = linalg::CsrMatrix(nb, nb, std::move(trips));
      }
      for (std::size_t k = 0; k < my_points.size(); ++k) {
        const auto& ev = eval_of(k);
        double acc = 0.0;
        if (options.storage == HamiltonianStorage::GlobalSparseCsr) {
          for (std::size_t i = 0; i < ev.indices.size(); ++i) {
            double rowsum = 0.0;
            for (std::size_t j = 0; j < ev.indices.size(); ++j)
              rowsum += p1_csr.fetch(ev.indices[i], ev.indices[j]) * ev.values[j];
            acc += ev.values[i] * rowsum;
          }
        } else {
          for (std::size_t i = 0; i < ev.indices.size(); ++i) {
            const double* prow = p1.data() + ev.indices[i] * nb;
            double rowsum = 0.0;
            for (std::size_t j = 0; j < ev.indices.size(); ++j)
              rowsum += prow[ev.indices[j]] * ev.values[j];
            acc += ev.values[i] * rowsum;
          }
        }
        n1_own[k] = acc;
      }
      // Compute-site probe for this rank's density batch; events can
      // target one rank through the thread's rank tag.
      resilience::sdc_probe("cpscf/rho_batch", {n1_own.data(), n1_own.size()});
    };
    const auto compute_rho_own = [&]() {
      // Batched producer: angular rings go through the shared basis-density
      // callback (ring blocks are geometry-defined, hence rank-identical).
      basis::fold_density(p1, p1_fold);
      const poisson::BatchDensityFn n1_fn =
          poisson::basis_density(basis, screen_radii, p1_fold);
      poisson::PartitionedPotential v1_part;
      if (!rho_row_begin.empty()) {
        // Distributed producer: this rank projects only its weighted share
        // of the (atom, shell) rows; the full rho_multipole is synthesized
        // with a packed row-by-row AllReduce. Each row is computed by
        // exactly one rank and summed with exact zeros, so the synthesized
        // samples -- and everything downstream -- are bit-identical to the
        // replicated producer.
        auto rho_m = hartree.project_rows(n1_fn, rho_row_begin[comm.rank()],
                                          rho_row_begin[comm.rank() + 1]);
        comm::PackedAllReducer packer(
            comm, options.reduce_mode,
            tune::pack_window_bytes(options.pack_bytes),
            options.verify_collectives);
        for (auto& per_atom : rho_m.samples)
          for (auto& channel : per_atom)
            packer.add(std::span<double>(channel.data(), channel.size()));
        packer.flush();
        collectives[comm.rank()] += packer.collective_count();
        rows[comm.rank()] += packer.rows_packed();
        hartree.finalize_splines(rho_m);
        v1_part = hartree.solve(rho_m);
      } else {
        v1_part = hartree.solve_density(n1_fn);
      }
      // Batched consumer over this rank's points; per-point values are
      // independent, so blocking never changes v1_own.
      const std::size_t block = tune::rho_block_size(options.dfpt.rho_block_size);
      std::vector<Vec3> ppos;
      std::vector<double> vh;
      for (std::size_t b0 = 0; b0 < my_points.size(); b0 += block) {
        const std::size_t e0 = std::min(my_points.size(), b0 + block);
        ppos.resize(e0 - b0);
        vh.resize(e0 - b0);
        for (std::size_t k = b0; k < e0; ++k)
          ppos[k - b0] = grid.point(my_points[k]).pos;
        hartree.potential_batch(v1_part, ppos.data(), e0 - b0, vh.data());
        for (std::size_t k = b0; k < e0; ++k)
          v1_own[k] = vh[k - b0] + fxc[my_points[k]] * n1_own[k];
      }
    };

    int start_iteration = 0;
    if (options.dfpt.warm_start) {
      const auto& ws = *options.dfpt.warm_start;
      AEQP_CHECK(ws.p1.rows() == nb && ws.p1.cols() == nb,
                 "solve_direction_parallel: warm start P^(1) has wrong dimensions");
      AEQP_CHECK(ws.iteration >= 1 && ws.iteration < options.dfpt.max_iterations,
                 "solve_direction_parallel: warm start iteration outside "
                 "(0, max_iterations)");
      p1 = ws.p1;
      have_response = true;
      start_iteration = ws.iteration;
      compute_sumup_own();
      compute_rho_own();
    }

    for (int iter = start_iteration + 1; iter <= options.dfpt.max_iterations;
         ++iter) {
      // --- H phase (distributed): partial response-Hamiltonian integrals
      //     over this rank's grid points, synthesized by packed AllReduce.
      timer.reset();
      obs::PhaseSpan phase_span;
      phase_span.begin("cpscf/h");
      Matrix h1 = h1_ext;
      if (have_response) {
        Matrix partial(nb, nb);
        for (std::size_t k = 0; k < my_points.size(); ++k) {
          const double w = grid.point(my_points[k]).weight * v1_own[k];
          const auto& ev = eval_of(k);
          for (std::size_t i = 0; i < ev.indices.size(); ++i) {
            const double wi = w * ev.values[i];
            for (std::size_t j = 0; j < ev.indices.size(); ++j)
              partial(ev.indices[i], ev.indices[j]) += wi * ev.values[j];
          }
        }
        comm::PackedAllReducer packer(comm, options.reduce_mode,
                                      tune::pack_window_bytes(options.pack_bytes),
                                      options.verify_collectives);
        for (std::size_t row = 0; row < nb; ++row)
          packer.add(std::span<double>(partial.data() + row * nb, nb));
        packer.flush();
        collectives[comm.rank()] += packer.collective_count();
        rows[comm.rank()] += packer.rows_packed();
        h1.axpy(1.0, partial);
        h1.symmetrize();
      }
      // Synthesized response Hamiltonian must be Hermitian and finite on
      // every rank (replicated value -- all ranks check, all ranks throw
      // together on violation, keeping the collective schedule aligned).
      resilience::guard_hermitian(h1, "cpscf/h1");
      phase_span.end();
      if (comm.rank() == 0) result.phase_seconds[Phase::H] += timer.seconds();

      // --- Sternheimer + DM (replicated; identical on every rank): the
      //     same +-omega update as DfptSolver. With ABFT on, the products
      //     carry checksums on every rank: a compute-site fault on one rank
      //     is corrected locally before it can de-synchronize the replicas.
      timer.reset();
      phase_span.begin("cpscf/sternheimer");
      const ResponseOrbitals c1 =
          sternheimer_update(h1, c_occ, c_virt, ground.eigenvalues,
                             options.dfpt.frequency, options.dfpt.abft);
      phase_span.end();
      if (comm.rank() == 0)
        result.phase_seconds[Phase::Sternheimer] += timer.seconds();

      timer.reset();
      phase_span.begin("cpscf/dm");
      Matrix p1_new = response_density_matrix(c1, c_occ, ground.occupations);
      if (have_response) {
        p1_new.scale(options.dfpt.mixing);
        p1_new.axpy(1.0 - options.dfpt.mixing, p1);
      }
      const double delta = p1_new.max_abs_diff(p1);
      p1 = std::move(p1_new);
      // Phase-boundary invariants on the replicated P^(1): finite, and
      // traceless against the overlap metric (electron-count conservation).
      resilience::guard_finite(p1, "cpscf/p1");
      resilience::guard_trace_identity(p1, ground.overlap, 0.0, "cpscf/p1");
      phase_span.end();
      if (comm.rank() == 0) {
        result.phase_seconds[Phase::DM] += timer.seconds();
        result.iterations = iter;
        final_delta = delta;
      }

      // --- Observer hook (health validation / checkpointing). The hook
      //     runs on rank 0 only, so side effects happen exactly once; its
      //     decision is broadcast so every rank takes the same branch. The
      //     extra collective exists only when an observer is installed,
      //     leaving the baseline collective sequence untouched. ---
      if (options.dfpt.observer) {
        std::vector<double> action(1, 0.0);
        if (comm.rank() == 0) {
          const CpscfIterationState state{direction, iter, delta,
                                          options.dfpt.mixing, &p1};
          if (options.dfpt.observer(state) == CpscfAction::Abort)
            action[0] = 1.0;
        }
        comm.broadcast(action, 0);
        if (action[0] != 0.0) {
          if (comm.rank() == 0) result.aborted = true;
          break;
        }
      }

      // --- Elastic hook: runs on EVERY rank with communicator access and
      //     the (replicated) iteration state -- the buddy-replication entry
      //     point. Placed after the abort broadcast so all ranks take the
      //     same branch and the collective schedule stays uniform. ---
      if (options.rank_hook) {
        const CpscfIterationState state{direction, iter, delta,
                                        options.dfpt.mixing, &p1};
        options.rank_hook(comm, state);
      }

      // --- Sumup phase (distributed): n^(1) on this rank's points. Under
      //     the legacy storage mode the contraction fetches every matrix
      //     element from a CSR copy (row pointer + column search + value,
      //     the inefficiency Fig. 3(a) illustrates); the values are
      //     identical either way. ---
      timer.reset();
      {
        AEQP_TRACE_SCOPE("cpscf/sumup");
        compute_sumup_own();
        // Second rung of the SDC ladder, rank-locally: the batch is a pure
        // function of the replicated P^(1), so one recompute repairs a
        // transient corruption without any collective traffic. A repeat
        // violation escalates (throws; peers see RankFailure and the
        // RecoveryDriver takes over).
        try {
          resilience::guard_finite({n1_own.data(), n1_own.size()},
                                   "cpscf/n1");
        } catch (const InvariantViolation&) {
          obs::counter("sdc/local_recomputes").increment();
          obs::trace_instant("sdc/recompute");
          compute_sumup_own();
          resilience::guard_finite({n1_own.data(), n1_own.size()},
                                   "cpscf/n1");
        }
      }
      if (comm.rank() == 0) result.phase_seconds[Phase::Sumup] += timer.seconds();

      // --- Rho phase: the Poisson producer is replicated on every rank
      //     (communication avoidance) or, with distribute_rho, split into
      //     weighted row shares and synthesized by packed AllReduce; the
      //     consumer runs on own points either way. ---
      timer.reset();
      {
        AEQP_TRACE_SCOPE("cpscf/rho");
        compute_rho_own();
        resilience::guard_finite({v1_own.data(), v1_own.size()}, "cpscf/v1");
      }
      if (comm.rank() == 0) result.phase_seconds[Phase::Rho] += timer.seconds();

      have_response = true;
      if (delta < options.dfpt.tolerance && iter > 1) {
        if (comm.rank() == 0) result.converged = true;
        break;
      }
    }

    // Publish this rank's share of n^(1) (disjoint indices) and the moment.
    for (std::size_t k = 0; k < my_points.size(); ++k)
      n1_full[my_points[k]] = n1_own[k];
    std::vector<double> moments(3, 0.0);
    for (std::size_t k = 0; k < my_points.size(); ++k) {
      const grid::GridPoint& gp = grid.point(my_points[k]);
      for (int axis = 0; axis < 3; ++axis)
        moments[static_cast<std::size_t>(axis)] +=
            gp.weight * gp.pos[axis] * n1_own[k];
    }
    comm.allreduce_sum(moments);
    if (comm.rank() == 0) {
      result.dipole_response = {moments[0], moments[1], moments[2]};
      result.p1 = p1;
      for (int axis = 0; axis < 3; ++axis)
        result.dipole_response_trace[axis] =
            linalg::trace_product(p1, integ.dipole_matrix(axis));
    }
  });

  if (!result.converged && !result.aborted && options.dfpt.require_convergence) {
    std::ostringstream msg;
    msg << "solve_direction_parallel: CPSCF failed to converge for direction "
        << direction << ": " << result.iterations
        << " iterations, last max|dP1|=" << final_delta
        << ", tolerance=" << options.dfpt.tolerance
        << ", mixing=" << options.dfpt.mixing << " (" << n_active << " of "
        << options.ranks << " ranks)";
    AEQP_THROW(msg.str());
  }

  result.n1_samples = std::move(n1_full);
  out.direction = std::move(result);
  for (std::size_t r = 0; r < n_active; ++r) {
    out.stats.collectives += collectives[r];
    out.stats.rows_reduced += rows[r];
  }
  out.stats.collectives /= n_active;  // same count on every rank
  out.stats.rows_reduced /= n_active;
  return out;
}

obs::ScopedMetricsSource register_metrics(const ParallelDfptStats& stats,
                                          std::string prefix) {
  return obs::ScopedMetricsSource(
      [&stats, prefix = std::move(prefix)](std::vector<obs::MetricSample>& out) {
        const auto push = [&](const char* name, double v) {
          out.push_back({prefix + "/" + name, v});
        };
        push("collectives", static_cast<double>(stats.collectives));
        push("rows_reduced", static_cast<double>(stats.rows_reduced));
        push("batches", static_cast<double>(stats.batches));
        push("max_rank_points_share", stats.max_rank_points_share);
        push("faults_detected", static_cast<double>(stats.faults_detected));
        push("restores", static_cast<double>(stats.restores));
        push("retries", static_cast<double>(stats.retries));
        push("wasted_iterations", static_cast<double>(stats.wasted_iterations));
        push("survivor_ranks", static_cast<double>(stats.survivor_ranks));
        push("lost_ranks", static_cast<double>(stats.lost_ranks));
        push("remap_batches_moved",
             static_cast<double>(stats.remap_batches_moved));
        push("remap_seconds", stats.remap_seconds);
        push("rebalances", static_cast<double>(stats.rebalances));
        push("rebalance_batches_moved",
             static_cast<double>(stats.rebalance_batches_moved));
        push("rebalance_seconds", stats.rebalance_seconds);
        push("degraded_ranks", static_cast<double>(stats.degraded_ranks));
        push("shrinks", static_cast<double>(stats.shrinks));
        push("buddy_restores", static_cast<double>(stats.buddy_restores));
        push("abft_corrections", static_cast<double>(stats.abft_corrections));
        push("invariant_violations",
             static_cast<double>(stats.invariant_violations));
        push("payload_corruptions",
             static_cast<double>(stats.payload_corruptions));
      });
}

}  // namespace aeqp::core
