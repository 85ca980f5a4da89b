package heteropim

import "heteropim/internal/nn"

// Multi-stack data-parallel training: M HMC stacks each train a shard
// of the global minibatch and synchronize gradients over SerDes/NVLink-
// class inter-stack links once per step (ring or tree all-reduce). Each
// stack is simulated by its own event engine, advanced in parallel on
// the worker pool, with a deterministic merge — results are
// byte-identical whatever SetParallelism/HETEROPIM_WORKERS says.

// AllReduce schedules for BatchCell.AllReduce.
const (
	// AllReduceRing is the bandwidth-optimal ring schedule: 2(M-1)
	// phases of P/M-byte chunks around a ring.
	AllReduceRing = string(nn.AllReduceRing)
	// AllReduceTree is the latency-optimal binomial-tree schedule:
	// 2*ceil(log2 M) phases of full-gradient messages.
	AllReduceTree = string(nn.AllReduceTree)
)
