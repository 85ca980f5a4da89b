package batch

import "heteropim/internal/hw"

// Reference-calibrated admissible bound. Within one (FreqScale,
// ProgProcessors) group the only knob left is the fixed-function unit
// budget, and a larger budget can only help: every grant's quotient is
// at least as large, so sections run at least as wide. The simulator's
// greedy scheduler makes that dominance APPROXIMATE rather than strict
// — the opportunistic-offload rule can flip an op's placement when the
// budget changes, a Graham-style scheduling anomaly — so the calibrated
// bound divides the reference objective by a measured slack:
//
//	obj(c) >= obj(s) / dominanceSlack   for any same-group s with
//	                                    s.Units >= c.Units
//
// The slack is property-tested (dse_test.go): across every model and a
// frequency x unit-ladder grid, the worst measured pairwise violation
// of strict dominance is ~1.35x, comfortably under 1.6. A simulated
// sibling s therefore certifies the admissible lower bound
// obj(s)/dominanceSlack for every smaller-or-equal budget in its group,
// and the pruner takes max(analytic, calibrated). The group reference —
// simulated first under calibrated ordering — is the LARGEST budget, so
// one reference bounds the whole group; every further simulation can
// only tighten the calibration. The equivalence argument of ExploreDSE
// is unchanged: a pruned candidate has
// obj(c) >= obj(s)/dominanceSlack = calibrated(c) > incumbent >=
// obj(winner), so it can neither win nor tie.
const dominanceSlack = 1.6

// calObs is one simulated group member.
type calObs struct {
	units int
	obj   hw.Seconds
}

// calibrator accumulates simulated objectives per group (groupKey) and
// serves calibrated bounds. It is only touched from the exploration's
// sequential sections (between Eval barriers), so it needs no locking.
type calibrator struct {
	groups map[groupKey][]calObs
}

func newCalibrator() *calibrator {
	return &calibrator{groups: map[groupKey][]calObs{}}
}

// observe records a simulated objective.
func (cal *calibrator) observe(c Candidate, obj hw.Seconds) {
	k := c.group()
	cal.groups[k] = append(cal.groups[k], calObs{units: c.Units, obj: obj})
}

// bound returns the tightest calibrated admissible bound for c: the
// best slack-discounted objective among simulated same-group members
// with at least c's unit budget. Zero (no constraint) when the group
// has no usable observation — degenerate groups (single member, or a
// reference that was itself pruned) simply fall back to the analytic
// bound.
func (cal *calibrator) bound(c Candidate) hw.Seconds {
	var b hw.Seconds
	for _, o := range cal.groups[c.group()] {
		if o.units >= c.Units {
			if v := o.obj / dominanceSlack; v > b {
				b = v
			}
		}
	}
	return b
}
