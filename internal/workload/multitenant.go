package workload

import (
	"fmt"

	"heteropim/internal/core"
	"heteropim/internal/hw"
	"heteropim/internal/nn"
)

// TenantSpec describes one job in a multi-tenant co-run: its model and
// whether it is host-restricted (the non-CNN placement policy of
// Section VI-F).
type TenantSpec struct {
	Model nn.ModelName
	// HostOnly restricts the job to the CPU and programmable PIM.
	HostOnly bool
}

// MultiTenantResult is the outcome of co-running N jobs.
type MultiTenantResult struct {
	Tenants []TenantSpec
	// Standalone holds each job's standalone wall-clock on the system
	// (host-restricted jobs measured under their restriction).
	Standalone []hw.Seconds
	// Sequential is the sum of standalone times.
	Sequential hw.Seconds
	// CoRun is the makespan of the combined schedule.
	CoRun hw.Seconds
	// Improvement is Sequential/CoRun - 1.
	Improvement float64
	// Slowdowns[i] is CoRun / Standalone[i]: how much longer tenant i
	// waits for its work versus having the machine to itself — the
	// fairness price of sharing.
	Slowdowns []float64
}

// RunMultiTenant co-schedules N training jobs on one heterogeneous PIM
// system — the generalization of Fig. 16 to more than two tenants
// (multi-tenancy per the paper's Section II motivation). PIM-scheduled
// jobs share the fixed-function pool; host-restricted jobs fill the CPU
// and programmable PIM.
func RunMultiTenant(tenants []TenantSpec) (MultiTenantResult, error) {
	if len(tenants) < 2 {
		return MultiTenantResult{}, fmt.Errorf("workload: multi-tenant run needs at least 2 jobs, got %d", len(tenants))
	}
	cfg := hw.PaperConfigScaled(hw.ConfigHeteroPIM, 1)
	res := MultiTenantResult{Tenants: tenants}

	// Measure each job standalone, then scale every job to the longest
	// one so the tenants hold comparable shares (continuous training,
	// as in Fig. 16's steady state).
	graphs := make([]*nn.Graph, len(tenants))
	base := make([]hw.Seconds, len(tenants))
	longest := hw.Seconds(0)
	for i, t := range tenants {
		g, err := nn.Build(t.Model)
		if err != nil {
			return res, err
		}
		if t.HostOnly {
			g = hostOnly(g)
		}
		graphs[i] = g
		r, err := core.RunPIM(g, cfg, core.HeteroOptions())
		if err != nil {
			return res, err
		}
		base[i] = r.StepTime
		if r.StepTime > longest {
			longest = r.StepTime
		}
	}
	for i := range graphs {
		if k := 0.9 * longest / base[i]; k > 1 {
			graphs[i] = ScaleGraph(graphs[i], k)
		}
		r, err := core.RunPIM(graphs[i], cfg, core.HeteroOptions())
		if err != nil {
			return res, err
		}
		res.Standalone = append(res.Standalone, r.StepTime)
		res.Sequential += r.StepTime
	}

	// Merge all jobs into one graph; each op keeps its HostOnly flag.
	combined := &nn.Graph{Model: "multi-tenant", BatchSize: graphs[0].BatchSize,
		GPUUtilization: graphs[0].GPUUtilization, InputBytes: graphs[0].InputBytes}
	for _, g := range graphs {
		base := len(combined.Ops)
		for _, op := range g.Ops {
			c := *op
			c.Inputs = make([]int, len(op.Inputs))
			for j, in := range op.Inputs {
				c.Inputs[j] = base + in
			}
			c.CrossStep = nil
			combined.AddOp(c)
		}
		combined.ParamBytes += g.ParamBytes
		combined.ActivationBytes += g.ActivationBytes
	}
	if err := combined.Validate(); err != nil {
		return res, fmt.Errorf("workload: multi-tenant graph: %w", err)
	}
	opts := core.HeteroOptions()
	opts.Steps = 2
	r, err := core.RunPIM(combined, cfg, opts)
	if err != nil {
		return res, err
	}
	res.CoRun = r.StepTime
	if res.CoRun > 0 {
		res.Improvement = res.Sequential/res.CoRun - 1
	}
	for _, s := range res.Standalone {
		if s > 0 {
			res.Slowdowns = append(res.Slowdowns, res.CoRun/s)
		} else {
			res.Slowdowns = append(res.Slowdowns, 0)
		}
	}
	return res, nil
}
