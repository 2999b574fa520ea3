#include "comm/hierarchical.hpp"

#include "common/error.hpp"

namespace aeqp::comm {

void hierarchical_allreduce_sum(parallel::Communicator& comm,
                                std::span<double> data) {
  // One rank has no node copy to share and no peer to reduce with: the
  // flat AllReduce is the whole algorithm (0 + x either way, one
  // collective instead of six).
  if (comm.size() == 1) {
    comm.allreduce_sum(data);
    return;
  }
  const std::size_t m = comm.node_size();
  std::span<double> window = comm.node_window(data.size());

  // Reset the node copy (it persists across calls).
  if (comm.node_rank() == 0)
    for (auto& v : window) v = 0.0;
  comm.node_barrier();

  // Local phase: m chunk rounds; in round s, node-rank r owns chunk
  // (r + s) mod m, so no two ranks ever write the same chunk concurrently.
  const std::size_t chunk = (data.size() + m - 1) / m;
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t c = (comm.node_rank() + s) % m;
    const std::size_t begin = std::min(c * chunk, data.size());
    const std::size_t end = std::min(begin + chunk, data.size());
    for (std::size_t i = begin; i < end; ++i) window[i] += data[i];
    comm.node_barrier();
  }

  // Global phase: node leaders reduce the per-node copies.
  comm.allreduce_sum_leaders(window);
  comm.node_barrier();

  // Every rank reads the synthesized result back from its node window.
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = window[i];
  comm.barrier();
}

}  // namespace aeqp::comm
