#pragma once

/// \file hierarchical.hpp
/// Hierarchical collective communication (paper Sec. 3.2.2): one data copy
/// per shared-memory node instead of one per rank. Each node's m ranks
/// update the node copy in m chunk rounds sequenced by node barriers (no
/// write conflicts), then only the N/m node leaders run the inter-node
/// AllReduce, and every rank reads the result back from its node window.
/// Memory per node drops from m copies to 1 and the expensive collective
/// narrows from N to N/m participants.

#include <span>

#include "parallel/cluster.hpp"

namespace aeqp::comm {

/// In-place hierarchical sum-AllReduce over all ranks of the cluster.
/// Collective: every rank must call with the same element count. A one-rank
/// world reduces flat: the same bits in one collective.
void hierarchical_allreduce_sum(parallel::Communicator& comm,
                                std::span<double> data);

}  // namespace aeqp::comm
